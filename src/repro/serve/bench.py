"""``repro bench serve`` — load harness for the serve daemon.

Two measurements per workload:

1. **Cold CLI reference** — a fresh subprocess runs
   ``python -m repro run <workload> --no-cache`` with every persistent
   cache disabled, exactly what a one-shot user pays.  The span tree it
   exports yields the simulation-stage seconds, counted as
   :data:`repro.harness.simspeed.SIM_STAGES` counts them.
2. **Served load phase** — an in-process daemon is primed with one
   request per workload (the cold in-server run), then ``--requests``
   submissions fan out over ``--concurrency`` keep-alive connections.
   Warm requests are answered from the shared runner caches and the
   response cache, so their end-to-end latency *is* an upper bound on
   their sim-stage latency.

``--check`` enforces the floors the issue pins: zero request failures
at the smoke concurrency level, and per workload the cold CLI
sim-stage time must be at least :data:`MIN_WARM_SPEEDUP` times the
warm-request p50 latency — the daemon's entire reason to exist.

The payload mirrors ``results/BENCH_simspeed.json`` conventions and is
written to ``results/BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.harness.simspeed import SIM_STAGES, stage_seconds

SERVE_BENCH_SCHEMA = 1

#: Warm-request p50 latency must beat the cold CLI sim-stage time by
#: at least this factor.
MIN_WARM_SPEEDUP = 5.0

DEFAULT_RESULTS_PATH = "results/BENCH_serve.json"


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _cold_reference(workload: str) -> Dict[str, float]:
    """One fully cold CLI run of ``workload`` in a fresh subprocess."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = "off"
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", workload,
                "--no-cache", "--trace", str(trace_path),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(
                f"cold reference run of {workload!r} failed:\n{proc.stderr}"
            )
        doc = json.loads(trace_path.read_text())
    sim = sum(stage_seconds(span, SIM_STAGES) for span in doc["spans"])
    return {"cold_wall_seconds": wall, "cold_sim_seconds": sim}


async def _load_phase(
    workloads: Sequence[str],
    requests: int,
    concurrency: int,
    workers: int,
) -> Dict[str, Any]:
    """Prime the daemon, then drive the measured request storm."""
    from repro.serve.client import ServeClient
    from repro.serve.http import ReproServer
    from repro.serve.state import ServeConfig, ServerState

    config = ServeConfig(
        host="127.0.0.1",
        port=0,
        workers=max(1, workers),
        # Floors require zero shed requests at smoke concurrency, so
        # the queue is sized to hold the entire storm.
        queue_size=max(64, requests + concurrency),
    )
    state = ServerState(config)
    server = ReproServer(state)
    await server.start()
    host, port = server.address
    priming: Dict[str, float] = {}
    latencies: Dict[str, List[float]] = {name: [] for name in workloads}
    failures: List[str] = []
    try:
        primer = ServeClient(host, port)
        for name in workloads:
            start = time.perf_counter()
            status, _, payload = await primer.post_json(
                "/v1/run", {"workload": name}
            )
            priming[name] = time.perf_counter() - start
            if status != 200 or payload.get("status") != "ok":
                failures.append(
                    f"priming {name}: HTTP {status} {payload.get('status')}"
                )
        await primer.close()

        pending = deque(
            workloads[index % len(workloads)] for index in range(requests)
        )

        async def drive(client: ServeClient) -> None:
            while True:
                try:
                    name = pending.popleft()
                except IndexError:
                    return
                start = time.perf_counter()
                try:
                    status, _, payload = await client.post_json(
                        "/v1/run", {"workload": name}
                    )
                except Exception as error:
                    failures.append(f"{name}: {error}")
                    continue
                elapsed = time.perf_counter() - start
                if status != 200 or payload.get("status") != "ok":
                    failures.append(
                        f"{name}: HTTP {status} {payload.get('status')}"
                    )
                else:
                    latencies[name].append(elapsed)

        clients = [
            ServeClient(host, port) for _ in range(max(1, concurrency))
        ]
        storm_start = time.perf_counter()
        await asyncio.gather(*(drive(client) for client in clients))
        storm_elapsed = time.perf_counter() - storm_start
        for client in clients:
            await client.close()
        health = state.health()
    finally:
        await server.close()
    return {
        "priming_seconds": priming,
        "latencies": latencies,
        "failures": failures,
        "elapsed_seconds": storm_elapsed,
        "health": health,
    }


def bench_serve(
    workloads: Sequence[str],
    requests: int = 24,
    concurrency: int = 4,
    workers: int = 2,
) -> Dict[str, Any]:
    """Run the full benchmark; returns the JSON-ready payload."""
    cold = {name: _cold_reference(name) for name in workloads}
    load = asyncio.run(
        _load_phase(workloads, requests, concurrency, workers)
    )
    per_workload: Dict[str, Dict[str, float]] = {}
    all_warm: List[float] = []
    for name in workloads:
        warm = load["latencies"][name]
        all_warm.extend(warm)
        p50 = _percentile(warm, 0.50)
        entry: Dict[str, float] = {
            "cold_wall_seconds": cold[name]["cold_wall_seconds"],
            "cold_sim_seconds": cold[name]["cold_sim_seconds"],
            "priming_seconds": load["priming_seconds"].get(name, 0.0),
            "warm_requests": float(len(warm)),
            "warm_p50_seconds": p50,
            "warm_p99_seconds": _percentile(warm, 0.99),
        }
        entry["warm_speedup"] = (
            cold[name]["cold_sim_seconds"] / p50 if p50 > 0 else 0.0
        )
        per_workload[name] = entry
    elapsed = load["elapsed_seconds"]
    return {
        "schema": SERVE_BENCH_SCHEMA,
        "config": {
            "workloads": list(workloads),
            "requests": requests,
            "concurrency": concurrency,
            "workers": workers,
        },
        "workloads": per_workload,
        "load": {
            "requests": requests,
            "failures": len(load["failures"]),
            "failure_detail": load["failures"][:20],
            "elapsed_seconds": elapsed,
            "requests_per_second": (
                requests / elapsed if elapsed > 0 else 0.0
            ),
            "p50_seconds": _percentile(all_warm, 0.50),
            "p99_seconds": _percentile(all_warm, 0.99),
        },
        "floors": {"min_warm_speedup": MIN_WARM_SPEEDUP},
    }


def check_payload(payload: Dict[str, Any]) -> List[str]:
    """Regression gates over a serve benchmark payload."""
    problems: List[str] = []
    failures = payload["load"]["failures"]
    if failures:
        detail = "; ".join(payload["load"].get("failure_detail", []))
        problems.append(f"{failures} request failure(s): {detail}")
    floor = payload.get("floors", {}).get(
        "min_warm_speedup", MIN_WARM_SPEEDUP
    )
    for name, entry in sorted(payload["workloads"].items()):
        if not entry["warm_requests"]:
            problems.append(f"{name}: no warm requests were measured")
            continue
        if entry["warm_speedup"] < floor:
            problems.append(
                f"{name}: warm p50 {entry['warm_p50_seconds']:.4f}s is only "
                f"{entry['warm_speedup']:.1f}x faster than the cold CLI "
                f"sim stages ({entry['cold_sim_seconds']:.3f}s); "
                f"floor is {floor:.0f}x"
            )
    return problems


def render(payload: Dict[str, Any]) -> str:
    """Fixed-width summary of a serve benchmark payload."""
    title = "Serve daemon latency (warm requests vs cold CLI)"
    lines = [title, "=" * len(title)]
    for name, entry in sorted(payload["workloads"].items()):
        lines.append(
            f"{name:<10} cold sim {entry['cold_sim_seconds']:7.3f}s  "
            f"prime {entry['priming_seconds']:7.3f}s  "
            f"warm p50 {entry['warm_p50_seconds'] * 1e3:8.2f}ms "
            f"p99 {entry['warm_p99_seconds'] * 1e3:8.2f}ms  "
            f"({entry['warm_speedup']:7.1f}x)"
        )
    load = payload["load"]
    lines.append(
        f"\n{load['requests']} request(s) in {load['elapsed_seconds']:.2f}s "
        f"= {load['requests_per_second']:.1f} req/s, "
        f"{load['failures']} failure(s); overall p50 "
        f"{load['p50_seconds'] * 1e3:.2f}ms p99 "
        f"{load['p99_seconds'] * 1e3:.2f}ms"
    )
    return "\n".join(lines)


def write_results(payload: Dict[str, Any], path=DEFAULT_RESULTS_PATH) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


__all__ = [
    "MIN_WARM_SPEEDUP",
    "SERVE_BENCH_SCHEMA",
    "bench_serve",
    "check_payload",
    "render",
    "write_results",
]
