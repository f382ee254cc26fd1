"""Figure 5: impact of p-thread optimization and merging.

Four variants: neither, optimization only, merging only, both.
Published trends: optimization shortens p-threads and makes previously
illegal/unprofitable candidates viable (raising coverage); merging cuts
launch counts and overhead.
"""

from benchmarks.conftest import run_once
from repro.harness.figures import figure5_opt_merge

NONE, OPT, MERGE, BOTH = 0, 1, 2, 3


def test_fig5_opt_merge(benchmark, runner, workloads, save_report):
    figure = run_once(
        benchmark,
        lambda: figure5_opt_merge(runner, workloads=workloads),
    )
    save_report("fig5_opt_merge", figure.render())

    shorter = 0
    active = 0
    for name in workloads:
        lengths = figure.series(name, "pthread_len")
        launches = figure.series(name, "launches")
        coverage = figure.series(name, "coverage_pct")
        if not any(launches):
            continue  # nothing selected under any variant (crafty)
        active += 1
        # Merging never increases launch counts vs. the same setting
        # without merging.
        assert launches[MERGE] <= launches[NONE] + 1
        assert launches[BOTH] <= launches[OPT] + 1
        # Optimization must not reduce achievable coverage.
        assert coverage[BOTH] >= coverage[MERGE] - 2.0
        if lengths[NONE] and lengths[OPT] < lengths[NONE]:
            shorter += 1
    if active:
        # Optimization shortens p-threads for a majority of benchmarks.
        assert shorter >= 0.5 * active
