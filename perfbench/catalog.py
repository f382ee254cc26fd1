"""Every metric the benchmark reports, and what each one should move.

``BENCHMARK.json`` holds the names, units, directions and bounds the
runner enforces; this catalog adds, for each per-layer metric, the
end-to-end metrics it should move, the workloads it should move them
on, and the workloads where it should read zero or stay put.  Later
changes cite these entries instead of re-deriving them.  The
benchmark's own test checks that the two files list the same metrics.

Every workload reports every end-to-end metric, so the metrics have
workload-neutral names; :data:`NAMED` maps them to the per-workload
names (``cold_table2_s``, ``serve_p50_s``, ...) that the report line
also prints.

Every time is in reference seconds: wall clock rescaled to a fixed host
speed by a pace sampler in the process doing the work (``pace.py``).
The report line gives the wall clock and the host speed next to them.
"""

from __future__ import annotations

COLD, WARM, SERVE = "cold_table2", "warm_table2", "serve_sweep"
TABLES = (COLD, WARM)
ALL = (COLD, WARM, SERVE)

#: (workload, end-to-end metric) -> the per-workload name it stands for.
NAMED = {
    (COLD, "latency_s"): "cold_table2_s",
    (WARM, "latency_s"): "warm_table2_s",
    (SERVE, "latency_s"): "serve_mean_s",
    (SERVE, "throughput_per_s"): "serve_rps",
}

#: name -> why the workload exists.
WORKLOADS = {
    COLD: (
        "cold Table 2 in fresh processes with the artifact cache off: every "
        "layer does its full work, as repro table2 does after any code change"
    ),
    WARM: (
        "the same cells reading an artifact cache filled in set-up: only "
        "timing and the cache codecs work, the control for slicing and selection"
    ),
    SERVE: (
        "a serve daemon driven closed loop with seeded stage-warm configs, one "
        "in four a repeat: slicing at varied scope and the response cache"
    ),
}

#: End-to-end metrics: (name, unit, better, bound, definition).
END_TO_END = [
    (
        "setup_s", "s", "lower", 0.25,
        "cold_table2: process spawn until repro is imported and the runner is "
        "built (median of the run's five worker processes); warm_table2: spawn "
        "to exit of the slower half of the cold pass that fills the artifact "
        "cache; serve_sweep: daemon spawn until /healthz answers and one "
        "priming request per program returned",
    ),
    (
        "latency_s", "s", "lower", 0.25,
        "latency of one unit of work: the run's median Table 2 pass, whose time "
        "is the sum of its two serial halves run side by side, i.e. what one "
        "serial pass takes (cold_table2_s, warm_table2_s); or the mean "
        "client-side latency of completed requests (serve_mean_s; serve_p50_s, "
        "the median, is too unsteady over one run's few dozen requests of 5x "
        "different cost)",
    ),
    (
        "throughput_per_s", "1/s", "higher", 0.25,
        "work completed per second of measured time: Table 2 cells per second "
        "of pass time, or served requests per second of sweep (serve_rps)",
    ),
    (
        "peak_rss_mib", "MiB", "lower", 0.1,
        "peak resident memory of the largest process doing measured work: a "
        "half-pass worker, or the daemon for serve_sweep",
    ),
    (
        "preexec_speedup_pct", "%", "higher", 0.01,
        "100 x (geomean over result rows of pre-exec IPC / base IPC - 1): the "
        "Table 2 rows, or the priming rows of serve_sweep; simulated, so it "
        "repeats exactly and any change means the results changed",
    ),
]


def _m(name, unit, better, layer, moves, on, zero_on=(), note=""):
    """One per-layer metric: it should move the end-to-end metrics
    ``moves`` on the workloads ``on``, and read zero (or stay put) on
    ``zero_on``."""
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "layer": layer,
        "moves": tuple(moves),
        "on": tuple(on),
        "zero_on": tuple(zero_on),
        "note": note,
    }


LAT = ("latency_s",)
RATE = ("latency_s", "throughput_per_s")
SPEEDUP = ("preexec_speedup_pct",)
HOST_SPEED = "simulated: a host-speed change leaves it unchanged"

#: Per-layer metrics, in report order.
PER_LAYER = [
    _m("workloads.build_s", "s", "lower", "workloads", ("setup_s", "latency_s"), ALL,
       note="the Table 2 passes build their programs inside the pass (latency_s); "
       "the warm fill and the serve priming build them in set-up (setup_s)"),
    _m("engine.trace_s", "s", "lower", "engine", LAT, [COLD], [WARM, SERVE]),
    _m("engine.trace_minst_per_s", "Minst/s", "higher", "engine", LAT, [COLD], [WARM, SERVE]),
    _m("engine.tier.compiled_blocks", "count", "lower", "engine", LAT, [COLD], [WARM, SERVE],
       "read across run_program calls only"),
    _m("engine.codegen.cache_misses", "count", "lower", "engine", LAT, [COLD], [WARM, SERVE],
       "the code cache is off with the artifact cache, so this reads zero in "
       "cold_table2 too; engine.compile.blocks counts the compile work there"),
    _m("engine.compile.blocks", "count", "lower", "engine", LAT, [COLD], [WARM, SERVE]),
    _m("engine.materialize_s", "s", "lower", "engine", LAT, [COLD], [WARM, SERVE],
       "lazy trace arrays, timed where the first column read lands"),
    _m("timing.baseline_s", "s", "lower", "timing", LAT, [COLD, SERVE], [WARM],
       "in serve_sweep only requests that change the width pay it"),
    _m("timing.preexec_s", "s", "lower", "timing", RATE, ALL,
       note="the largest share of warm_table2"),
    _m("timing.validation_s", "s", "lower", "timing", LAT, TABLES, [SERVE]),
    _m("timing.minst_per_s", "Minst/s", "higher", "timing", RATE, ALL,
       note="main-thread plus p-thread simulated instructions per host second"),
    _m("timing.l2.covered_frac", "ratio", "higher", "memory", SPEEDUP, ALL, note=HOST_SPEED),
    _m("timing.pthread.drop_frac", "ratio", "lower", "memory", SPEEDUP, ALL, note=HOST_SPEED),
    _m("memory.l2.mshr.full_stalls", "count", "lower", "memory", SPEEDUP, ALL,
       note=HOST_SPEED),
    _m("slicing.build_s", "s", "lower", "slicing", RATE, [COLD, SERVE], [WARM]),
    _m("slicing.slices", "count", "lower", "slicing", RATE, [COLD, SERVE], [WARM]),
    _m("slicing.us_per_slice", "us", "lower", "slicing", RATE, [COLD, SERVE], [WARM]),
    _m("slicing.tree_nodes", "count", "lower", "slicing", RATE, [COLD, SERVE], [WARM]),
    _m("selection.select_s", "s", "lower", "selection", RATE, [COLD, SERVE], [WARM],
       "self time of select_from_tree, optimize_body excluded"),
    _m("selection.program_s", "s", "lower", "selection", RATE, [COLD, SERVE], [WARM],
       "self time of select_pthreads outside slicing, trees and merging"),
    _m("selection.candidates", "count", "lower", "selection", RATE, [COLD, SERVE], [WARM]),
    _m("selection.iterations", "count", "lower", "selection", RATE, [COLD, SERVE], [WARM]),
    _m("selection.chosen_frac", "ratio", "higher", "selection", SPEEDUP, [COLD, SERVE],
       [WARM]),
    _m("model.evaluate_calls", "count", "lower", "model", RATE, [COLD, SERVE], [WARM]),
    _m("model.launch_err_pct", "%", "lower", "model", SPEEDUP, ALL,
       note="predicted vs simulated launches over rows with nonzero launches"),
    _m("model.cov_err_pct", "%", "lower", "model", SPEEDUP, ALL,
       note="predicted vs simulated coverage over rows with nonzero coverage"),
    _m("pthreads.optimize_s", "s", "lower", "pthreads", RATE, [COLD, SERVE], [WARM],
       "cold memo in cold_table2, warm memo in serve_sweep"),
    _m("pthreads.optimize_calls", "count", "lower", "pthreads", RATE, [COLD, SERVE], [WARM]),
    _m("pthreads.optimize_memo_hit_frac", "ratio", "higher", "pthreads", RATE,
       [COLD, SERVE], [WARM], "explains the cold/serve difference in optimize_s"),
    _m("pthreads.merge_s", "s", "lower", "pthreads", RATE, [COLD, SERVE], [WARM]),
    _m("harness.artifacts.load_s", "s", "lower", "harness", LAT, [WARM], [COLD, SERVE]),
    _m("harness.artifacts.store_s", "s", "lower", "harness", ("setup_s",), [WARM],
       [COLD, SERVE], "read from the traced set-up fill, where the stores happen"),
    _m("harness.artifacts.decode_s", "s", "lower", "harness", LAT, [WARM], [COLD, SERVE],
       "FunctionalResult/SimStats from_dict of loaded artifacts"),
    _m("harness.artifacts.disk_hits", "count", "higher", "harness", LAT, [WARM],
       [COLD, SERVE]),
    _m("harness.artifacts.bytes", "bytes", "lower", "harness", LAT, [WARM], [COLD, SERVE],
       "bytes loaded by the warm pass plus bytes stored by the fill"),
    _m("harness.self_s", "s", "lower", "harness", LAT, ALL,
       note="ExperimentRunner.run minus every layer above"),
    _m("serve.p50_s", "s", "lower", "serve", LAT, [SERVE], TABLES,
       "serve_p50_s: median client-side latency of completed requests"),
    _m("serve.exec_p50_s", "s", "lower", "serve", RATE, [SERVE], TABLES,
       "request span from /trace/<id>, requests that executed"),
    _m("serve.wait_p50_s", "s", "lower", "serve", RATE, [SERVE], TABLES,
       "client latency minus exec time: queue plus HTTP plus the other request's "
       "GIL share, so it moves serve.tail_s by more than one layer's share"),
    _m("serve.warm_p50_s", "s", "lower", "serve", LAT, [SERVE], TABLES,
       "client latency of requests that missed the response cache"),
    _m("serve.hit_p50_ms", "ms", "lower", "serve", LAT, [SERVE], TABLES,
       "client latency of response-cache hits"),
    _m("serve.tail_s", "s", "lower", "serve", RATE, [SERVE], TABLES,
       "serve_tail_s: the highest percentile with at least 10 samples beyond it; "
       "the report line states the percentile and sample count"),
    _m("serve.response_cache_hit_frac", "ratio", "higher", "serve", RATE, [SERVE], TABLES),
    _m("serve.batch_size_mean", "count", "higher", "serve", ("throughput_per_s",), [SERVE],
       TABLES),
    _m("serve.rejected", "count", "lower", "serve", ("throughput_per_s",), [SERVE], TABLES),
    _m("serve.self_s", "s", "lower", "serve", LAT, [SERVE], TABLES,
       "self time of the daemon's per-request execute step"),
    _m("obs.trace_overhead_pct", "%", "lower", "obs", (), ALL,
       note="traced minus untraced measured time: what tracing costs, it moves nothing"),
    _m("obs.unattributed_frac", "ratio", "lower", "obs", (), ALL,
       note="traced time no layer span accounts for"),
]

PER_LAYER_NAMES = [entry["name"] for entry in PER_LAYER]
END_TO_END_NAMES = [entry[0] for entry in END_TO_END]
UNITS = {entry[0]: entry[1] for entry in END_TO_END}
UNITS.update({entry["name"]: entry["unit"] for entry in PER_LAYER})


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": e["name"], "unit": e["unit"], "better": e["better"]}
            for e in PER_LAYER
        ],
    }
