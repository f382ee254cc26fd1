"""Figure 8: response to memory-latency variation (cross-validation).

Four experiments per benchmark in the paper's pXX(tYY) notation —
simulate latency XX with p-threads selected assuming YY, for
XX, YY in {70, 140}.  Published trends: a latency increase makes the
framework select longer p-threads that fully cover fewer misses; the
self-validation experiments generally match or beat the corresponding
cross-validation experiments.
"""

from benchmarks.conftest import run_once
from repro.harness.figures import figure8_memory_latency
from repro.workloads.suite import SUITE

# Bar order from repro.harness.figures: p140(t70), p140(t140),
# p70(t70), p70(t140).
P140_T70, P140_T140, P70_T70, P70_T140 = 0, 1, 2, 3


def test_fig8_memory_latency(benchmark, runner, workloads, save_report):
    figure = run_once(
        benchmark,
        lambda: figure8_memory_latency(runner, workloads=workloads),
    )
    save_report("fig8_memory_latency", figure.render())

    longer = 0
    self_wins_high = 0
    fuller = 0
    active = 0
    for name in workloads:
        lengths = figure.series(name, "pthread_len")
        full = figure.series(name, "full_coverage_pct")
        ipcs = [r.preexec.ipc for r in figure.results[name]]
        if not any(lengths):
            continue
        active += 1
        # Higher assumed latency -> longer p-threads (compare the two
        # t140 selections against the two t70 selections).
        if (
            lengths[P140_T140] >= lengths[P140_T70] - 0.25
            and lengths[P70_T140] >= lengths[P70_T70] - 0.25
        ):
            longer += 1
        # At the long simulated latency, self-validation must win: the
        # t70 p-threads simply cannot tolerate 140 cycles.
        if ipcs[P140_T140] >= ipcs[P140_T70] * 0.97:
            self_wins_high += 1
        # Over-specification buys more *full* coverage ("the light gray
        # bars are highest in this group").
        if full[P70_T140] >= full[P70_T70] - 1.0:
            fuller += 1
    # The three fractions describe the whole suite.  On a subset such as
    # mcf,vpr.r one program that bucks a trend is half the vote, so a
    # subset run only renders and saves the figure.
    if active and set(workloads) == set(SUITE):
        assert longer >= 0.6 * active
        assert self_wins_high >= 0.7 * active
        assert fuller >= 0.7 * active
    # At the short simulated latency the paper's contention exception —
    # over-specification helping the framework "model bus contention" —
    # dominates our miss-dense suite, so no p70 self-win assertion is
    # made; EXPERIMENTS.md discusses the reversal.
