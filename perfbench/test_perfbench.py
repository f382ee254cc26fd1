"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import catalog
import layers
import pace
import pytest
import run
import sweep

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_is_the_catalog():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == catalog.benchmark_json()


def test_benchmark_json_within_contract_limits():
    doc = catalog.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_catalog_names_real_workloads():
    for entry in catalog.PER_LAYER:
        assert set(entry["on"]) | set(entry["zero_on"]) <= set(catalog.ALL)
        assert not set(entry["on"]) & set(entry["zero_on"]), entry["name"]
        assert set(entry["moves"]) <= set(catalog.END_TO_END_NAMES), entry["name"]
    for (workload, metric), name in catalog.NAMED.items():
        assert workload in catalog.ALL and metric in catalog.END_TO_END_NAMES, name


def test_request_list_is_a_function_of_the_seed():
    assert sweep.request_list(7, 6) == sweep.request_list(7, 6)
    assert sweep.request_list(7, 6) != sweep.request_list(8, 6)


def test_new_configs_are_drawn_without_replacement():
    from repro.serve.protocol import parse_run_request

    priming = {parse_run_request(doc).config for doc in sweep.priming_requests()}
    for seed in (0, 1, 2):
        requests = sweep.request_list(seed, 60)
        repeats = sweep.is_repeat(requests)
        seen = set(priming)
        for index, (document, repeat) in enumerate(zip(requests, repeats)):
            config = parse_run_request(document).config
            assert repeat == (index % sweep.REPEAT_EVERY == sweep.REPEAT_EVERY - 1)
            if repeat:
                assert config in seen
            else:
                assert config not in seen, (seed, index)
                seen.add(config)


def test_every_block_sends_each_program_each_scope_and_length():
    for seed in (0, 1, 2):
        requests = sweep.request_list(seed, 2 * sweep.BLOCK)
        assert len(requests) == 2 * sweep.BLOCK * len(sweep.PROGRAMS) * 4 // 3
        fresh = [d for d, rep in zip(requests, sweep.is_repeat(requests)) if not rep]
        per_block = sweep.BLOCK * len(sweep.PROGRAMS)
        for block in (fresh[:per_block], fresh[per_block:]):
            for program in sweep.PROGRAMS:
                mine = [d["constraints"] for d in block if d["workload"] == program]
                assert sorted(c["scope"] for c in mine) == sorted(sweep.SCOPES)
                assert sorted(c["max_pthread_length"] for c in mine) == sorted(
                    sweep.LENGTHS
                )


def test_process_splits_cover_every_program_once():
    assert sorted(sum(run.HALVES, ())) == sorted(run.TABLE_PROGRAMS)
    assert sorted(sum(run.REFERENCE_SPLIT, ())) == sorted(sweep.PROGRAMS)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(10))) is None
    pct, value, n = run.tail([float(i) for i in range(40)])
    assert (pct, value, n) == (75.0, 29.0, 40)


def test_normalise_takes_out_the_rounds_and_rescales():
    rounds = [(1.0, 0.002), (2.0, 0.002), (9.0, 0.004)]
    # Two rounds of twice the reference time fall inside [0, 4).
    assert pace.factor(rounds, 0.0, 4.0) == pytest.approx(2.0)
    assert pace.normalise(rounds, 0.0, 4.0) == pytest.approx((4.0 - 0.004) / 2.0)
    # An interval without a round uses every round of the process.
    assert pace.factor(rounds, 4.0, 5.0) == pytest.approx(8.0 / 3.0)
    assert pace.factor([], 0.0, 1.0) == 1.0


def test_sampler_runs_rounds_until_stopped():
    import signal

    sampler = pace.PaceSampler(period=0.01).start()
    end = time.monotonic() + 0.2
    while time.monotonic() < end:
        pass
    rounds = sampler.stop()
    assert len(rounds) >= 5
    assert all(seconds > 0 for _, seconds in rounds)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    time.sleep(0.05)
    assert len(sampler.samples) == len(rounds)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0

    wrapped_inner = tracer.spanned(inner, "inner")
    tracer.spanned(outer, "outer")()
    spans = tracer.totals()["spans"]
    assert spans["outer"] == {"calls": 1, "total_s": 6.0, "self_s": 4.0}
    assert spans["inner"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}


def test_span_stacks_are_per_thread():
    tracer = layers.LayerTracer()
    gate = threading.Barrier(2)

    def leaf():
        gate.wait(timeout=10)
        time.sleep(0.05)

    wrapped_leaf = tracer.spanned(leaf, "leaf")
    root = tracer.spanned(lambda: wrapped_leaf(), "root")
    threads = [threading.Thread(target=root) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans = tracer.totals()["spans"]
    # Each root contains only its own thread's leaf.
    assert spans["root"]["calls"] == spans["leaf"]["calls"] == 2
    assert spans["root"]["self_s"] < 0.04


def test_patch_and_restore_round_trip():
    import repro.pthreads.merger as merger
    import repro.selection.selector as selector
    from repro.engine.functional import FunctionalResult

    originals = (selector.optimize_body, merger.optimize_body,
                 FunctionalResult.__dict__["from_dict"])
    tracer = layers.LayerTracer()
    layers.install(tracer)
    assert selector.optimize_body is not originals[0]
    assert merger.optimize_body is not originals[1]
    tracer.restore()
    assert (selector.optimize_body, merger.optimize_body,
            FunctionalResult.__dict__["from_dict"]) == originals


def _traced_cold_sample(tmp_path, index):
    out = tmp_path / f"sample-{index}.json"
    subprocess.run(
        [sys.executable, str(run.HERE / "worker.py"), "pass", "--trace",
         "--programs", "parser,crafty", "--out", str(out),
         "--spawned", repr(time.monotonic())],
        cwd=ROOT, env=run.child_env(None), check=True, timeout=300,
    )
    return json.loads(out.read_text())


def test_consecutive_cold_samples_do_the_same_work(tmp_path):
    first, second = (_traced_cold_sample(tmp_path, i) for i in range(2))
    for sample in (first, second):
        counts = sample["layers"]["counts"]
        sample["memo_misses"] = (
            counts["pthreads.optimize_calls"] - counts.get("pthreads.optimize_memo_hits", 0)
        )
    assert first["memo_misses"] == second["memo_misses"] > 0
    assert first["counters"] == second["counters"]
    assert first["counters"]["engine.compile.programs"] > 0
    assert first["rows"] == second["rows"]
