"""Table 2: primary results and model validation.

Pre-execution IPC, launches, p-thread lengths, miss coverage, the
overhead-only (execute & sequence) and latency-only IPCs, and the
framework's predictions of each — the paper's §4.2 table.

Shape checks mirror the paper's headline claims:
* pre-execution improves most benchmarks; crafty is flat/negative;
* the two overhead-only measurements agree (overhead ==
  sequencing-bandwidth consumption);
* predicted launch counts upper-bound measured ones (context drops);
* p-thread length predictions are self-fulfilling.
"""

import pytest

from benchmarks.conftest import run_once
from repro.harness.tables import render_table2, table2


def test_table2_main_results(benchmark, runner, workloads, save_report):
    rows = run_once(
        benchmark, lambda: table2(runner, workloads=workloads)
    )
    save_report("table2_main_results", render_table2(rows))
    by_name = {row.name: row for row in rows}

    improved = sum(1 for row in rows if row.speedup_pct > 2.0)
    assert improved >= 0.6 * len(rows)

    for row in rows:
        # Overhead-as-sequencing assumption: the two overhead-only
        # implementations agree closely (paper: "often identical").
        assert row.overhead_execute_ipc == pytest.approx(
            row.overhead_sequence_ipc, rel=0.05
        )
        # Latency tolerance for free cannot materially lose to the
        # unassisted machine.  (It is NOT always >= full pre-execution:
        # stolen sequencing slots pace the main thread and can give
        # p-threads extra lookahead — observed on vortex.)
        assert row.latency_only_ipc >= row.base_ipc * 0.90
        if row.launches:
            assert row.pred_launches >= row.launches
            assert row.insns_per_pthread == pytest.approx(
                row.pred_insns_per_pthread, rel=0.05
            )

    if "crafty" in by_name:
        assert by_name["crafty"].speedup_pct < 5.0
    if "mcf" in by_name:
        # Structurally limited: low full coverage, modest effect.
        assert by_name["mcf"].full_covered_pct < 40.0
