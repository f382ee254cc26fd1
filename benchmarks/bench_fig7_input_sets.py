"""Figure 7: p-thread selection input data set.

Three scenarios: *perfect* (select on the measured run itself),
*dynamic* (select on a small leading profile phase — the JIT scenario),
and *static* (select on the test input — the profile-driven static
compiler scenario).  Published findings: the dynamic scenario
approaches perfect information; the static scenario is usable but
weaker because test inputs are small and miss less (for the paper's
twolf/vpr.p the test working set fits in the L2 and no p-threads are
selected at all).
"""

from benchmarks.conftest import run_once
from repro.harness.figures import figure7_input_sets

PERFECT, DYNAMIC, STATIC = 0, 1, 2


def test_fig7_input_sets(benchmark, runner, workloads, save_report):
    figure = run_once(
        benchmark,
        lambda: figure7_input_sets(runner, workloads=workloads),
    )
    save_report("fig7_input_sets", figure.render())

    dynamic_close = 0
    active = 0
    for name in workloads:
        speedups = figure.series(name, "speedup_pct")
        if abs(speedups[PERFECT]) < 1.0:
            continue
        active += 1
        # Dynamic profiles often approach perfect information.
        if speedups[DYNAMIC] >= 0.5 * speedups[PERFECT] - 2.0:
            dynamic_close += 1
        # No scenario should produce a catastrophic slowdown.
        assert min(speedups) > -20.0
    if active:
        assert dynamic_close >= 0.5 * active
