"""Processor-width cross-validation (paper §4.5).

The paper performs the Figure 8 methodology on processor width too and
reports "similar results" without a figure; this bench regenerates
that study explicitly for widths {4, 8}: pW(tV) simulates width W with
p-threads selected assuming width V.

On a narrower machine overhead is relatively more expensive (the
``BWseq`` denominator in Equation 4), so width-4 selections should be
no more aggressive than width-8 selections.
"""

from benchmarks.conftest import run_once
from repro.harness.figures import figure8b_processor_width

# Bar order: p8(t4), p8(t8), p4(t4), p4(t8).
P8_T4, P8_T8, P4_T4, P4_T8 = 0, 1, 2, 3


def test_fig8b_processor_width(benchmark, runner, workloads, save_report):
    figure = run_once(
        benchmark,
        lambda: figure8b_processor_width(runner, workloads=workloads),
    )
    save_report("fig8b_processor_width", figure.render())

    active = 0
    sane = 0
    for name in workloads:
        overheads = figure.series(name, "overhead_pct")
        ipcs = [r.preexec.ipc for r in figure.results[name]]
        base_ipcs = [r.baseline.ipc for r in figure.results[name]]
        if not any(overheads):
            continue
        active += 1
        # The wide machine runs at least as fast as the narrow one.
        if ipcs[P8_T8] >= ipcs[P4_T4] * 0.98:
            sane += 1
        # Width-4 selection is never more overhead-aggressive than
        # width-8 selection measured on the same machine.
        assert overheads[P4_T4] <= overheads[P4_T8] + 10.0
        assert base_ipcs[P8_T8] >= base_ipcs[P4_T4] * 0.98
    if active:
        assert sane >= 0.7 * active
