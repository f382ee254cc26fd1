"""Figure 6: p-thread selection granularity.

Whole-run selection vs. region-specialized selection (run/8, run/32,
run/128 — proportional stand-ins for the paper's 100M/10M/1M regions
of billion-instruction runs).  The published finding is *consistency*:
results are broadly similar across grains — "a certain amount of
self-similarity in programs" — with occasional coverage loss at the
finest grain when a region's statistics no longer justify a p-thread.
"""

from benchmarks.conftest import run_once
from repro.harness.figures import figure6_granularity

DIVISORS = (1, 8, 32, 128)


def test_fig6_granularity(benchmark, runner, workloads, save_report):
    figure = run_once(
        benchmark,
        lambda: figure6_granularity(
            runner, workloads=workloads, divisors=DIVISORS
        ),
    )
    save_report("fig6_granularity", figure.render())

    consistent = 0
    for name in workloads:
        speedups = figure.series(name, "speedup_pct")
        coverage = figure.series(name, "coverage_pct")
        if max(coverage) < 1.0:
            consistent += 1  # nothing selected anywhere: consistent
            continue
        # Cross-grain self-similarity: region selection stays within a
        # broad band of the whole-run result.
        if abs(speedups[1] - speedups[0]) <= max(15.0, abs(speedups[0])):
            consistent += 1
    assert consistent >= 0.6 * len(workloads)
