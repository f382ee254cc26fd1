"""The repository benchmark: cold Table 2, warm-cache Table 2, serve sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_table2 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, and prints
every per-layer metric.  Lines before the last are a human report that
also names the per-workload figures (``cold_table2_s``,
``serve_tail_s``, ...); the last line is the result::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

Measured work runs in child processes started from ``src/`` of this
checkout (see ``worker.py`` and ``serve_launcher.py``); scratch files
live under ``.perfbench/`` and are removed on exit.  Every time the
result line reports is in reference seconds: each child samples its
host's speed as it works (``pace.py``), and the report line gives the
wall clock and that speed next to them.  ``catalog.py`` documents every
metric and the layer it belongs to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import pace  # noqa: E402
import sweep  # noqa: E402

#: The fixed Table 2 subset: selection-heavy mcf, vortex, bzip2, gcc and
#: the light parser and crafty.
TABLE_PROGRAMS = ("bzip2", "crafty", "gcc", "mcf", "parser", "vortex")
EXPECTED_TABLE = HERE / "expected_table2.txt"
#: A Table 2 pass runs as two serial halves of about the same cost side
#: by side, one fresh process per core; cells run in this fixed order.
HALVES = (("bzip2", "vortex", "crafty"), ("gcc", "mcf", "parser"))

#: Measured work per run is a fixed function of ``--seconds``: one unit
#: per this many seconds, and at least one.  At 20 seconds that is one
#: cold pass, one warm pass and two blocks of serve rounds
#: (sweep.BLOCK rounds each), which on a 2-core x86-64 host measure
#: about 20, 8 and 28 seconds of wall clock.
COLD_PASS_S = 20.0
WARM_PASS_S = 20.0
SERVE_BLOCK_S = 10.0

#: The serve check's offline reference runs as two processes too, each
#: with programs of about half the stage-warm cost.
REFERENCE_SPLIT = (("gap", "vpr.p"), ("vpr.r", "twolf", "parser"))

#: Import-and-build samples per run behind the median ``setup_s``.
SETUP_SAMPLES = 5
#: Keep-alive connections of the serve client: at most one per core.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Every run ends within this many seconds or fails.
RUN_BUDGET_S = 175.0
#: Largest |unattributed| share of the traced pass the accounting allows.
ACCOUNTING_TOLERANCE = 0.02
#: Environment knobs that change what the program does; children run
#: with their defaults.
_PINNED_OFF = ("REPRO_VERIFY", "REPRO_ENGINE", "REPRO_TIER_THRESHOLD", "REPRO_JOBS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def child_env(cache: Optional[Path]) -> Dict[str, str]:
    """Environment of every measured child: this checkout's sources, a
    fixed hash seed, and the artifact cache at ``cache`` (or off)."""
    env = {k: v for k, v in os.environ.items() if k not in _PINNED_OFF}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(cache) if cache is not None else "off"
    return env


class Run:
    """One invocation: arguments, scratch space, counters, report."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = ROOT / ".perfbench" / f"{self.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.report: Dict[str, Any] = {"workload": self.workload, "seed": self.seed}
        self._serial = 0

    def figure(self, name: str, value: float, unit: str, **extra) -> None:
        """A per-workload figure (``cold_table2_s``, ...) for the report line."""
        self.report[name] = dict(value=value, unit=unit, **extra)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def worker(self, mode: str, **options) -> Dict[str, Any]:
        """Run ``worker.py`` in a fresh process; returns its JSON result."""
        return self.workers([dict(options, mode=mode)])[0]

    def workers(self, jobs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run several ``worker.py`` processes at once (see :meth:`worker`).

        A job names ``mode`` and optionally ``cache``, ``programs``,
        ``trace`` and ``requests``.
        """
        started = []
        try:
            for job in jobs:
                self._serial += 1
                stem = self.work / f"{job['mode']}-{self._serial}"
                argv = [sys.executable, str(HERE / "worker.py"), job["mode"],
                        "--out", f"{stem}.json"]
                if job.get("programs"):
                    argv += ["--programs", ",".join(job["programs"])]
                if job.get("trace"):
                    argv.append("--trace")
                if job.get("requests") is not None:
                    Path(f"{stem}.requests").write_text(json.dumps(job["requests"]))
                    argv += ["--requests", f"{stem}.requests"]
                argv += ["--spawned", repr(time.monotonic())]
                with open(f"{stem}.log", "wb") as log:
                    proc = subprocess.Popen(
                        argv, cwd=ROOT, env=child_env(job.get("cache")),
                        stdout=subprocess.DEVNULL, stderr=log,
                    )
                started.append((job["mode"], stem, proc))
            for mode, stem, proc in started:
                try:
                    code = proc.wait(timeout=self.remaining())
                except subprocess.TimeoutExpired:
                    raise BenchError(f"worker {mode} timed out") from None
                if code != 0:
                    tail = Path(f"{stem}.log").read_text(errors="replace")[-2000:]
                    raise BenchError(f"worker {mode} exited {code}:\n{tail}")
            return [json.loads(Path(f"{stem}.json").read_text()) for _, stem, _ in started]
        finally:
            for _, _, proc in started:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


# -- shared helpers -----------------------------------------------------


def units(seconds: float, unit_s: float) -> int:
    """How many units of about ``unit_s`` seconds fill ``seconds``."""
    return max(1, round(seconds / unit_s))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(latencies: List[float]):
    """Highest percentile with at least 10 samples beyond it (nearest rank)."""
    n = len(latencies)
    if n < 11:
        return None
    pct = 100.0 * (1.0 - 10.0 / n)
    ordered = sorted(latencies)
    return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)], n


def speedup_pct(rows: List[Dict[str, float]]) -> float:
    """100 x (geomean of pre-exec IPC / base IPC - 1)."""
    logs = [math.log(r["preexec_ipc"] / r["base_ipc"]) for r in rows]
    return 100.0 * (math.exp(sum(logs) / len(logs)) - 1.0)


def error_pct(pairs) -> float:
    """Mean |predicted - measured| / measured over nonzero measurements."""
    errors = [100.0 * abs(pred - meas) / meas for pred, meas in pairs if meas]
    return sum(errors) / len(errors) if errors else 0.0


def layer_metrics(totals: Dict[str, Any], wall_s: float, scale: float) -> Dict[str, float]:
    """Per-layer metrics from a :class:`layers.LayerTracer` read-out.

    ``scale`` turns the traced wall seconds into reference seconds (the
    unit's reference time over its wall time); the residual share of
    ``wall_s`` no span accounts for is a ratio, so it stays unscaled.
    """
    spans, counts = totals["spans"], totals["counts"]

    def self_s(name: str) -> float:
        return scale * spans.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> float:
        return counts.get(name, 0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    timing_s = sum(
        self_s(f"timing.{mode}") for mode in ("baseline", "preexec", "validation")
    )
    # The daemon's per-request wrapper is not a layer: its self time is
    # the part of a request no layer accounts for.
    accounted = sum(
        entry["self_s"] for name, entry in spans.items() if name != "serve.execute"
    )
    return {
        "workloads.build_s": self_s("workloads.build"),
        "engine.trace_s": self_s("engine.trace"),
        "engine.trace_minst_per_s": ratio(
            count("engine.instructions"), self_s("engine.trace"), 1e-6
        ),
        "engine.tier.compiled_blocks": count("engine.tier.compiled_blocks"),
        "engine.codegen.cache_misses": count("engine.codegen.cache_misses"),
        "engine.compile.blocks": count("engine.compile.blocks"),
        "engine.materialize_s": self_s("engine.materialize"),
        "timing.baseline_s": self_s("timing.baseline"),
        "timing.preexec_s": self_s("timing.preexec"),
        "timing.validation_s": self_s("timing.validation"),
        "timing.minst_per_s": ratio(count("timing.instructions"), timing_s, 1e-6),
        "timing.l2.covered_frac": ratio(
            count("timing.preexec.covered"), count("timing.preexec.l2_misses")
        ),
        "timing.pthread.drop_frac": ratio(
            count("timing.preexec.drops"),
            count("timing.preexec.launches") + count("timing.preexec.drops"),
        ),
        "slicing.build_s": self_s("slicing.build"),
        "slicing.slices": count("slicing.slices"),
        "slicing.us_per_slice": ratio(
            self_s("slicing.build"), count("slicing.slices"), 1e6
        ),
        "slicing.tree_nodes": count("slicing.tree_nodes"),
        "selection.select_s": self_s("selection.select"),
        "selection.program_s": self_s("selection.program"),
        "selection.candidates": count("selection.candidates"),
        "selection.iterations": count("selection.iterations"),
        "selection.chosen_frac": ratio(
            count("selection.chosen"), count("selection.candidates")
        ),
        "model.evaluate_calls": count("model.evaluate_calls"),
        "pthreads.optimize_s": self_s("pthreads.optimize"),
        "pthreads.optimize_calls": count("pthreads.optimize_calls"),
        "pthreads.optimize_memo_hit_frac": ratio(
            count("pthreads.optimize_memo_hits"), count("pthreads.optimize_calls")
        ),
        "pthreads.merge_s": self_s("pthreads.merge"),
        "harness.artifacts.load_s": self_s("harness.artifacts.load"),
        "harness.artifacts.store_s": self_s("harness.artifacts.store"),
        "harness.artifacts.decode_s": self_s("harness.artifacts.decode"),
        "harness.artifacts.disk_hits": count("harness.artifacts.disk_hits"),
        "harness.artifacts.bytes": count("harness.artifacts.bytes"),
        "harness.self_s": self_s("harness.run"),
        "serve.self_s": self_s("serve.execute"),
        "obs.unattributed_frac": ratio(wall_s - accounted, wall_s),
    }


def merge(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Layer totals of several processes, added up."""
    spans: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    for part in parts:
        for name, entry in part["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def subtract(final: Dict[str, Any], mark: Dict[str, Any]) -> Dict[str, Any]:
    """Layer totals accumulated between two read-outs."""
    spans = {}
    for name, entry in final["spans"].items():
        base = mark["spans"].get(name, {})
        spans[name] = {
            key: entry[key] - base.get(key, 0) for key in ("calls", "total_s", "self_s")
        }
    counts = {
        name: value - mark["counts"].get(name, 0)
        for name, value in final["counts"].items()
    }
    return {"spans": spans, "counts": counts}


def zero_work(totals: Dict[str, Any], prefixes) -> List[str]:
    """Spans or counts under ``prefixes`` that recorded any work."""
    busy = [
        name for name, entry in totals["spans"].items()
        if name.startswith(prefixes) and entry["calls"]
    ]
    busy += [
        name for name, value in totals["counts"].items()
        if name.startswith(prefixes) and value
    ]
    return sorted(busy)


# -- Table 2 workloads --------------------------------------------------


def _expected_rows() -> Dict[str, List[List[str]]]:
    return _rows_by_program(EXPECTED_TABLE.read_text())


def _rows_by_program(text: str) -> Dict[str, List[List[str]]]:
    """Each program's row cells in both Table 2 sections."""
    rows: Dict[str, List[List[str]]] = {}
    for line in text.splitlines():
        cells = line.split()
        if cells and cells[0] in TABLE_PROGRAMS:
            rows.setdefault(cells[0], []).append(cells)
    return rows


def render(rows: Dict[str, Dict[str, Any]]) -> str:
    """The Table 2 text of a pass, rendered by the program from the rows
    its processes returned."""
    if str(SRC) not in sys.path:
        sys.path.append(str(SRC))
    from repro.harness.tables import Table2Row, render_table2
    from repro.workloads.suite import SUITE

    return render_table2([
        Table2Row(**{k: v for k, v in rows[name].items() if k != "speedup_pct"})
        for name in sorted(rows, key=SUITE.index)
    ])


def check_table(run: Run, result: Dict[str, Any]) -> None:
    """Each cell is an operation; a row that differs from the expected
    Table 2 (and so from every other pass) fails it.  A pass must also
    render the expected text byte for byte, or all its cells fail."""
    cells = result["cells_s"]
    text = render(result["rows"])
    got = _rows_by_program(text)
    expected = _expected_rows()
    run.attempted += len(cells)
    bad = [name for name in cells if got.get(name) != expected.get(name)]
    if text + "\n" != EXPECTED_TABLE.read_text():
        bad = list(cells)
    run.failed += len(bad)
    if bad:
        run.report.setdefault("mismatched_rows", []).extend(sorted(bad))


def table_pass(run: Run, cache: Optional[Path], trace: bool = False) -> Dict[str, Any]:
    """One checked Table 2 pass over :data:`HALVES`, side by side.

    Each half is a serial pass in a fresh process on its own core, so
    each is paced against its own core.  The pass's time is the sum of
    the halves' reference seconds: what one serial pass takes, at half
    the wall clock.  ``total_ref_s`` is the slower half from spawn to
    exit, which is how long the pass holds up the run.
    """
    halves = run.workers([
        {"mode": "pass", "cache": cache, "trace": trace, "programs": list(half)}
        for half in HALVES
    ])
    result: Dict[str, Any] = {
        "wall_s": sum(h["wall_s"] for h in halves),
        "wall_ref_s": sum(h["wall_ref_s"] for h in halves),
        "total_ref_s": max(h["total_ref_s"] for h in halves),
        "setup_ref_s": [h["setup_ref_s"] for h in halves],
        "host_factor": statistics.fmean(h["host_factor"] for h in halves),
        "peak_rss_mib": max(h["peak_rss_mib"] for h in halves),
        "cells_s": {}, "rows": {}, "counters": {},
        "layers": merge([h["layers"] for h in halves]) if trace else None,
    }
    for half in halves:
        result["cells_s"].update(half["cells_s"])
        result["rows"].update(half["rows"])
        for name, value in half["counters"].items():
            result["counters"][name] = result["counters"].get(name, 0) + value
    check_table(run, result)
    return result


def table_workload(run: Run, warm: bool) -> Dict[str, float]:
    # Table 2 is a fixed experiment, so the seed changes nothing here.
    # Cells run in one fixed order: with a seeded order, peak RSS moved
    # by 9% from seed to seed, as the largest transient depends on which
    # artifacts are already held when the biggest one decodes.
    cache = run.work / "artifacts" if warm else None
    if warm:
        # Set-up fills the cache with one cold pass; traced runs trace
        # it, since that is where the stores happen.
        start = time.monotonic()
        fill = table_pass(run, cache, trace=run.trace)
        run.report["fill_wall_s"] = time.monotonic() - start

    count = 1 if run.trace else units(run.seconds, WARM_PASS_S if warm else COLD_PASS_S)
    passes = [table_pass(run, cache) for _ in range(count)]
    if not warm:
        setups = [s for p in passes for s in p["setup_ref_s"]]
        while not run.trace and len(setups) < SETUP_SAMPLES:
            setups.append(run.worker("setup")["setup_ref_s"])

    cells = sum(len(p["cells_s"]) for p in passes)
    times = [p["wall_ref_s"] for p in passes]
    rows = list(passes[-1]["rows"].values())
    metrics = {
        "setup_s": fill["total_ref_s"] if warm else median(setups),
        "latency_s": median(times),
        "throughput_per_s": cells / sum(times),
        "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
        "preexec_speedup_pct": speedup_pct(rows),
    }
    run.report["passes"] = len(passes)
    run.figure(catalog.NAMED[run.workload, "latency_s"], metrics["latency_s"], "s",
               wall_s=median([p["wall_s"] for p in passes]),
               host_factor=median([p["host_factor"] for p in passes]))
    if not run.trace:
        return metrics

    traced = table_pass(run, cache, trace=True)
    layers = layer_metrics(traced["layers"], traced["wall_s"],
                           traced["wall_ref_s"] / traced["wall_s"])
    layers["memory.l2.mshr.full_stalls"] = traced["counters"]["memory.l2.mshr.full_stalls"]
    layers["model.launch_err_pct"] = error_pct(
        (r["pred_launches"], r["launches"]) for r in rows
    )
    layers["model.cov_err_pct"] = error_pct(
        (r["pred_covered_pct"], r["covered_pct"]) for r in rows
    )
    layers["obs.trace_overhead_pct"] = 100.0 * (traced["wall_ref_s"] / median(times) - 1.0)
    if warm:
        stores = layer_metrics(fill["layers"], fill["wall_s"], fill["wall_ref_s"] / fill["wall_s"])
        layers["harness.artifacts.store_s"] += stores["harness.artifacts.store_s"]
        layers["harness.artifacts.bytes"] += stores["harness.artifacts.bytes"]
    run.report["layer_spans"] = traced["layers"]["spans"]
    run.report["engine_compile"] = traced["counters"]
    account(run, layers["obs.unattributed_frac"])
    if warm:
        # The no-change control: nothing may slice, select, optimise or trace.
        run.attempted += 1
        busy = zero_work(traced["layers"], ("slicing.", "selection.", "pthreads.",
                                            "model.", "engine.trace"))
        if busy:
            run.failed += 1
            run.report["warm_layers_not_zero"] = busy
    return layers


def account(run: Run, unattributed: float) -> None:
    """Layer self times must add up to the traced wall clock."""
    run.attempted += 1
    run.report["unattributed_frac"] = unattributed
    if abs(unattributed) > ACCOUNTING_TOLERANCE:
        run.failed += 1


# -- serve workload -----------------------------------------------------


class Daemon:
    """A ``serve_launcher.py`` process on an ephemeral port."""

    def __init__(self, run: Run, trace: bool) -> None:
        self.run = run
        self.trace = trace
        self.report_path = run.work / f"daemon-{int(trace)}.json"
        self.log = open(run.work / f"daemon-{int(trace)}.log", "wb")
        argv = [sys.executable, str(HERE / "serve_launcher.py"),
                "--report", str(self.report_path)]
        if trace:
            argv.append("--trace")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(None), stdout=subprocess.PIPE, stderr=self.log
        )
        try:
            self.port = self._read_port()
            self._await_health()
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], min(60.0, self.run.remaining()))
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("PORT "):
            raise BenchError(f"daemon did not start: {line!r}")
        return int(line.split()[1])

    def _await_health(self) -> None:
        while True:
            try:
                if sweep.get_json("127.0.0.1", self.port, "/healthz")["status"] == "ok":
                    return
            except (OSError, RuntimeError):
                pass
            if time.monotonic() - self.spawned > 60:
                raise BenchError("daemon never became healthy")
            time.sleep(0.05)

    def get(self, path: str) -> Any:
        return sweep.get_json("127.0.0.1", self.port, path)

    def mark(self) -> Optional[Dict[str, Any]]:
        """Layer totals so far (traced daemons only)."""
        if not self.trace:
            return None
        path = Path(f"{self.report_path}.mark")
        self.proc.send_signal(signal.SIGUSR1)
        while not path.exists():
            if self.proc.poll() is not None or self.run.remaining() < 5:
                raise BenchError("daemon did not write its mark")
            time.sleep(0.01)
        return json.loads(path.read_text())["layers"]

    def stop(self) -> Dict[str, Any]:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=min(60.0, self.run.remaining()))
            except subprocess.TimeoutExpired:
                self.close()
                raise BenchError("daemon did not stop") from None
        self.close()
        return json.loads(self.report_path.read_text())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _counter(metrics: Dict[str, Any], name: str) -> float:
    return metrics.get(name, {}).get("value", 0)


def serve_session(run: Run, requests, trace: bool) -> Dict[str, Any]:
    """Spawn, prime, sweep and stop one daemon."""
    daemon = Daemon(run, trace)
    try:
        # One connection: the priming requests run one after another, so
        # set-up time does not depend on how two of them shared the GIL.
        priming = sweep.drive("127.0.0.1", daemon.port, sweep.priming_requests(), 1)
        primed = time.monotonic()
        answered = [r for r in priming["records"] if r["status"] == 200]
        if len(answered) != len(sweep.PROGRAMS) or any(
            r["payload"].get("status") != "ok" for r in answered
        ):
            raise BenchError("priming requests failed")
        before = daemon.get("/metrics/json")["metrics"]
        mark = daemon.mark()
        swept = sweep.drive("127.0.0.1", daemon.port, requests, CONNECTIONS)
        after = daemon.get("/metrics/json")["metrics"]
        traces = {}
        if trace:
            for record in swept["records"]:
                if record["id"]:
                    traces[record["index"]] = daemon.get(f"/trace/{record['id']}")
        report = daemon.stop()
    finally:
        daemon.close()
    layers = subtract(report["layers"], mark) if trace else None
    samples = report["pace"]
    start, end = swept["start"], swept["end"]
    return {
        "setup_s": pace.normalise(samples, daemon.spawned, primed),
        "setup_wall_s": primed - daemon.spawned,
        # Client-side times of the sweep in reference seconds: the
        # daemon's pace rounds hold the GIL, so they stall the requests
        # in flight, and they take the same share of every stretch.
        "scale": pace.normalise(samples, start, end) / (end - start) if end > start else 1.0,
        "host_factor": pace.factor(samples, start, end),
        "priming": priming["records"],
        "records": swept["records"],
        "elapsed_s": swept["elapsed_s"],
        "metrics_delta": {
            name: _counter(after, name) - _counter(before, name)
            for name in ("serve.requests.total", "serve.requests.cache_hits",
                         "serve.requests.rejected", "memory.l2.mshr.full_stalls")
        },
        "batch": (
            after.get("serve.batch.size", {}).get("sum", 0)
            - before.get("serve.batch.size", {}).get("sum", 0),
            after.get("serve.batch.size", {}).get("count", 0)
            - before.get("serve.batch.size", {}).get("count", 0),
        ),
        "traces": traces,
        "peak_rss_mib": report["peak_rss_mib"],
        "layers": layers,
    }


def _key(document: Dict[str, Any]) -> str:
    return json.dumps(document, sort_keys=True)


def _without_timings(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in payload.items() if k != "timings"}


def check_serve(run: Run, requests, sessions: List[Dict[str, Any]]) -> None:
    """Every priming and sweep request is an operation.  It fails on a
    non-200 or non-ok answer, on an answer that differs from an earlier
    answer to the same config (a repeat, or the other daemon), and on
    one that differs from the offline reference."""
    answers = []  # (config key, record) over every session
    for session in sessions:
        answers += [(_key(d), r) for d, r in zip(sweep.priming_requests(), session["priming"])]
        answers += [(_key(requests[r["index"]]), r) for r in session["records"]]
    first: Dict[str, Dict[str, Any]] = {}
    bad = set()
    for number, (key, record) in enumerate(answers):
        payload = record["payload"] or {}
        if record["status"] != 200 or payload.get("status") != "ok":
            bad.add(number)
            continue
        body = _without_timings(payload)
        if first.setdefault(key, body) != body:
            bad.add(number)
    # The daemon has stopped, so the offline runs use both cores: one
    # process per half of the programs, each keeping its trace caches.
    keys = list(first)
    halves = [[k for k in keys if json.loads(k)["workload"] in group]
              for group in REFERENCE_SPLIT]
    results = run.workers([
        {"mode": "reference", "requests": [json.loads(k) for k in half]}
        for half in halves
    ])
    expected = {
        key: payload
        for half, result in zip(halves, results)
        for key, payload in zip(half, result["payloads"])
    }
    wrong = {k for k in keys if expected[k] != first[k]}
    bad.update(n for n, (key, _) in enumerate(answers) if key in wrong)
    run.attempted += len(answers)
    run.failed += len(bad)
    run.report["reference_configs"] = len(keys)


def serve_workload(run: Run) -> Dict[str, float]:
    rounds = sweep.BLOCK * units(run.seconds, SERVE_BLOCK_S)
    requests = sweep.request_list(run.seed, rounds)
    sessions = [serve_session(run, requests, trace=False)]
    if run.trace:
        sessions.append(serve_session(run, requests, trace=True))
    check_serve(run, requests, sessions)

    base = sessions[0]
    done = [r for r in base["records"] if r["status"] == 200]
    latencies = [r["latency_s"] * base["scale"] for r in done]
    priming_rows = [r["payload"]["summary"] for r in base["priming"]]
    # latency_s is the mean: request costs spread over 5x, and the median
    # of one run's few dozen requests moved by 15% from seed to seed.
    metrics = {
        "setup_s": base["setup_s"],
        "latency_s": statistics.fmean(latencies),
        "throughput_per_s": len(done) / (base["elapsed_s"] * base["scale"]),
        "peak_rss_mib": base["peak_rss_mib"],
        "preexec_speedup_pct": speedup_pct(
            [{"base_ipc": r["base_ipc"], "preexec_ipc": r["preexec_ipc"]}
             for r in priming_rows]
        ),
    }
    repeats = sweep.is_repeat(requests)
    run.report.update({
        "requests": len(base["records"]),
        "repeats": sum(repeats[r["index"]] for r in base["records"]),
        "connections": CONNECTIONS,
        "setup_wall_s": base["setup_wall_s"],
        "sweep_wall_s": base["elapsed_s"],
        "host_factor": base["host_factor"],
    })
    run.figure(catalog.NAMED[run.workload, "latency_s"], metrics["latency_s"], "s")
    run.figure(catalog.NAMED[run.workload, "throughput_per_s"],
               metrics["throughput_per_s"], "req/s")
    run.figure("serve_p50_s", median(latencies), "s", samples=len(latencies))
    found = tail(latencies)
    if found is not None:
        run.figure("serve_tail_s", found[1], "s", percentile=found[0], samples=found[2])
    if not run.trace:
        return metrics

    traced = sessions[1]
    scale = traced["scale"]
    executed, hits, waits = [], [], []
    for record in traced["records"]:
        info = traced["traces"].get(record["index"])
        if record["status"] != 200 or info is None:
            continue
        latency = record["latency_s"] * scale
        if info["cached"]:
            hits.append(latency)
        else:
            exec_s = info["spans"]["duration"] * scale
            executed.append((exec_s, latency))
            waits.append(latency - exec_s)
    busy = traced["layers"]["spans"].get("serve.execute", {}).get("total_s", 0.0)
    layers = layer_metrics(traced["layers"], busy, scale)
    delta = traced["metrics_delta"]
    batch_sum, batch_count = traced["batch"]
    traced_done = [r for r in traced["records"] if r["status"] == 200]
    payloads = [r["payload"] for r in traced_done]
    layers.update({
        "memory.l2.mshr.full_stalls": delta["memory.l2.mshr.full_stalls"],
        "model.launch_err_pct": error_pct(
            (p["selection"]["prediction"]["launches"],
             p["stats"]["preexec"]["pthread_launches"]) for p in payloads
        ),
        "model.cov_err_pct": error_pct(
            (p["selection"]["prediction"]["coverage_fraction"], p["coverage"])
            for p in payloads
        ),
        "serve.p50_s": median(latencies),
        "serve.exec_p50_s": median([e for e, _ in executed]),
        "serve.wait_p50_s": median(waits),
        "serve.warm_p50_s": median([lat for _, lat in executed]),
        "serve.hit_p50_ms": 1000.0 * median(hits),
        "serve.tail_s": found[1] if found else 0.0,
        "serve.response_cache_hit_frac": (
            delta["serve.requests.cache_hits"] / delta["serve.requests.total"]
            if delta["serve.requests.total"] else 0.0
        ),
        "serve.batch_size_mean": batch_sum / batch_count if batch_count else 0.0,
        "serve.rejected": delta["serve.requests.rejected"],
        "obs.trace_overhead_pct": 100.0 * (
            metrics["throughput_per_s"] * traced["elapsed_s"] * scale
            / max(1, len(traced_done)) - 1.0
        ),
    })
    run.report["layer_spans"] = traced["layers"]["spans"]
    account(run, layers["obs.unattributed_frac"])
    return layers


# -- entry point --------------------------------------------------------


WORKLOADS = {
    catalog.COLD: lambda run: table_workload(run, warm=False),
    catalog.WARM: lambda run: table_workload(run, warm=True),
    catalog.SERVE: serve_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2

    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        measured = WORKLOADS[args.workload](run)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    names = catalog.PER_LAYER_NAMES if run.trace else catalog.END_TO_END_NAMES
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": catalog.UNITS[name]}
        for name in names
    }
    print(json.dumps(run.report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
