"""Tests for model parameters and selection constraints."""

import pytest

from repro.model.params import ModelParams, SelectionConstraints


class TestModelParams:
    def test_bw_seq_mt_weighting(self):
        # (2*IPC + BWseq) / 3, weighted 2:1 toward IPC.
        params = ModelParams(bw_seq=8, unassisted_ipc=2.0)
        assert params.bw_seq_mt == pytest.approx(4.0)

    def test_bw_seq_mt_bounds(self):
        params = ModelParams(bw_seq=8, unassisted_ipc=8.0)
        assert params.bw_seq_mt == pytest.approx(8.0)
        params = ModelParams(bw_seq=8, unassisted_ipc=0.1)
        assert 0.1 < params.bw_seq_mt < 8.0

    def test_overhead_charge_formula(self):
        params = ModelParams(bw_seq=4, unassisted_ipc=1.0)
        assert params.overhead_per_instruction() == pytest.approx(2.0 / 16.0)

    def test_wider_machine_cheaper_overhead(self):
        narrow = ModelParams(bw_seq=4, unassisted_ipc=1.0)
        wide = ModelParams(bw_seq=8, unassisted_ipc=1.0)
        assert (
            wide.overhead_per_instruction() < narrow.overhead_per_instruction()
        )

    def test_with_helpers(self):
        params = ModelParams()
        assert params.with_mem_latency(140).mem_latency == 140

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bw_seq=0),
            dict(bw_seq_pt=0),
            dict(mem_latency=0),
            dict(unassisted_ipc=0),
            dict(load_latency=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestSelectionConstraints:
    def test_paper_defaults(self):
        constraints = SelectionConstraints()
        assert constraints.scope == 1024
        assert constraints.max_pthread_length == 32
        assert constraints.optimize and constraints.merge

    @pytest.mark.parametrize(
        "kwargs",
        [dict(scope=0), dict(max_pthread_length=0), dict(min_support=0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConstraints(**kwargs)
