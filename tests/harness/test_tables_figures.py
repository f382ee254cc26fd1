"""Tests for table/figure generation on a reduced workload set."""

import pytest

from repro.harness.experiment import ExperimentRunner
from repro.harness.figures import (
    FIGURE_METRICS,
    figure4_scope_length,
    figure5_opt_merge,
)
from repro.harness.tables import render_table1, render_table2, table1, table2
from repro.workloads.suite import build


@pytest.fixture(scope="module")
def runner():
    runner = ExperimentRunner()
    small = build("pharmacy", "train", n_xact=700, n_drugs=16384, hot_drugs=1024)
    runner._workloads[("pharmacy", "train", None)] = small
    runner._workloads[("pharmacy", "train", small.hierarchy)] = small
    return runner


class TestTable1:
    def test_rows_and_rendering(self, runner):
        rows = table1(runner, workloads=["pharmacy"])
        assert len(rows) == 1
        row = rows[0]
        assert row.instructions > 0
        assert row.perfect_l2_ipc >= row.ipc
        text = render_table1(rows)
        assert "pharmacy" in text and "perfect-L2" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def row(self, runner):
        (row,) = table2(runner, workloads=["pharmacy"])
        return row

    def test_rows_and_rendering(self, runner):
        rows = table2(runner, workloads=["pharmacy"])
        row = rows[0]
        assert row.launches > 0
        assert 0 <= row.covered_pct <= 100
        assert row.full_covered_pct <= row.covered_pct
        assert row.pred_launches >= row.launches  # drops only reduce
        text = render_table2(rows)
        assert "measured" in text and "predicted" in text

    def test_launch_prediction_close(self, row):
        """Launch counts are the paper's most reliable diagnostic:
        predictions only err through dropped launches."""
        assert row.launches <= row.pred_launches
        assert row.launches / row.pred_launches > 0.5

    def test_pthread_length_self_fulfilling(self, row):
        """The paper: 'Predictions of average p-thread length are
        self-fulfilling.'"""
        ratio = row.insns_per_pthread / row.pred_insns_per_pthread
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_overhead_ipc_accurate(self, row):
        ratio = row.overhead_sequence_ipc / row.pred_overhead_ipc
        assert ratio == pytest.approx(1.0, abs=0.25)


class TestFigures:
    def test_figure4_shape(self, runner):
        figure = figure4_scope_length(
            runner, workloads=["pharmacy"], combos=((64, 4), (1024, 32))
        )
        assert figure.bar_labels == ["64/4", "1024/32"]
        for metric in FIGURE_METRICS:
            assert len(figure.series("pharmacy", metric)) == 2
        # Relaxing constraints must not hurt full coverage.
        series = figure.series("pharmacy", "full_coverage_pct")
        assert series[1] >= series[0]
        assert "Figure 4" in figure.render()

    def test_figure5_variants(self, runner):
        figure = figure5_opt_merge(runner, workloads=["pharmacy"])
        assert figure.bar_labels == ["none", "opt", "merge", "opt+merge"]
        launches = figure.series("pharmacy", "launches")
        # Merging reduces launches relative to no merging.
        assert launches[3] <= launches[1]
