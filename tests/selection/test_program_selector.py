"""Tests for whole-program selection and predictions."""

import pickle

import pytest

from repro.model.params import ModelParams, SelectionConstraints
from repro.selection.program_selector import select_pthreads
from repro.workloads import pharmacy

PARAMS = ModelParams(bw_seq=8, unassisted_ipc=0.8, mem_latency=70, load_latency=2)


@pytest.fixture(scope="module")
def selection(pharmacy_small, pharmacy_small_run):
    return select_pthreads(
        pharmacy_small, pharmacy_small_run.trace, PARAMS, SelectionConstraints()
    )


class TestSelectPthreads:
    def test_pthreads_selected(self, selection):
        assert selection.pthreads

    def test_merging_collapses_to_shared_trigger(self, selection):
        """With merging on, pharmacy's p-threads share the induction
        trigger and merge down to very few static p-threads."""
        triggers = {p.trigger_pc for p in selection.pthreads}
        assert pharmacy.INDUCTION_PC in triggers
        assert len(selection.pthreads) <= 3

    def test_prediction_totals_consistent(self, selection):
        prediction = selection.prediction
        assert prediction.launches == sum(
            p.prediction.dc_trig for p in selection.pthreads
        )
        assert prediction.misses_covered <= prediction.sample_l2_misses
        assert prediction.misses_fully_covered <= prediction.misses_covered
        assert prediction.adv_agg == pytest.approx(
            prediction.lt_agg - prediction.oh_agg
        )

    def test_coverage_fraction_bounds(self, selection):
        assert 0.0 <= selection.prediction.coverage_fraction <= 1.0
        assert (
            selection.prediction.full_coverage_fraction
            <= selection.prediction.coverage_fraction
        )

    def test_predicted_ipcs_ordered(self, selection):
        prediction = selection.prediction
        # overhead-only <= unassisted <= full <= latency-only
        assert prediction.predicted_overhead_ipc <= PARAMS.unassisted_ipc + 1e-9
        assert prediction.predicted_ipc <= prediction.predicted_latency_ipc + 1e-9

    def test_describe_runs(self, selection):
        text = selection.describe()
        assert "p-thread" in text

    def test_pickles_without_slice_trees(self, selection):
        """The runner memoizes and persists every selection, so it keeps
        only what reports and the timing run read: no slice tree."""
        data = pickle.dumps(selection, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"SliceNode" not in data
        assert b"SliceTree" not in data


class TestRegionRestriction:
    def test_region_uses_region_statistics(
        self, pharmacy_small, pharmacy_small_run
    ):
        trace = pharmacy_small_run.trace
        full = select_pthreads(pharmacy_small, trace, PARAMS)
        half = select_pthreads(
            pharmacy_small, trace, PARAMS, region=(0, len(trace) // 2)
        )
        assert (
            half.prediction.sample_l2_misses
            <= full.prediction.sample_l2_misses
        )
        assert half.prediction.launches <= full.prediction.launches

    def test_empty_region_selects_nothing(
        self, pharmacy_small, pharmacy_small_run
    ):
        selection = select_pthreads(
            pharmacy_small, pharmacy_small_run.trace, PARAMS, region=(0, 10)
        )
        assert selection.pthreads == []
        assert selection.prediction.launches == 0


class TestConstraintEffects:
    def test_no_merge_keeps_separate_pthreads(
        self, pharmacy_small, pharmacy_small_run
    ):
        merged = select_pthreads(
            pharmacy_small,
            pharmacy_small_run.trace,
            PARAMS,
            SelectionConstraints(merge=True),
        )
        unmerged = select_pthreads(
            pharmacy_small,
            pharmacy_small_run.trace,
            PARAMS,
            SelectionConstraints(merge=False),
        )
        assert len(unmerged.pthreads) >= len(merged.pthreads)

    def test_merge_reduces_predicted_launches(
        self, pharmacy_small, pharmacy_small_run
    ):
        merged = select_pthreads(
            pharmacy_small,
            pharmacy_small_run.trace,
            PARAMS,
            SelectionConstraints(merge=True),
        )
        unmerged = select_pthreads(
            pharmacy_small,
            pharmacy_small_run.trace,
            PARAMS,
            SelectionConstraints(merge=False),
        )
        assert merged.prediction.launches <= unmerged.prediction.launches

    def test_relaxed_constraints_raise_full_coverage(
        self, pharmacy_small, pharmacy_small_run
    ):
        """Longer p-threads cover *fewer* misses each (paper §2) but
        tolerate more latency — full coverage grows as constraints
        relax (the Figure 4 trend)."""
        narrow = select_pthreads(
            pharmacy_small,
            pharmacy_small_run.trace,
            PARAMS,
            SelectionConstraints(scope=16, max_pthread_length=8),
        )
        wide = select_pthreads(
            pharmacy_small,
            pharmacy_small_run.trace,
            PARAMS,
            SelectionConstraints(scope=1024, max_pthread_length=32),
        )
        assert (
            wide.prediction.misses_fully_covered
            >= narrow.prediction.misses_fully_covered
        )
        assert wide.prediction.lt_agg >= narrow.prediction.lt_agg
