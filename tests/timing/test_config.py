"""Tests for timing configuration and simulation modes."""

import pytest

from repro.timing.config import (
    BASELINE,
    LATENCY_ONLY,
    MachineConfig,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    PERFECT_L2,
    PRE_EXECUTION,
)


class TestMachineConfig:
    def test_paper_defaults(self):
        machine = MachineConfig()
        assert machine.bw_seq == 8
        assert machine.window == 128
        assert machine.pthread_contexts == 3
        assert machine.pthread_burst == 8
        assert machine.pthread_burst_period == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bw_seq=0),
            dict(window=0),
            dict(pthread_contexts=-1),
            dict(pthread_burst=0),
            dict(pthread_burst_period=0),
            dict(dispatch_latency=-1),
            dict(mispredict_penalty=-1),
            dict(store_forward_latency=-1),
            dict(stride_degree=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MachineConfig(**kwargs)

    def test_hashable_for_cache_keys(self):
        assert hash(MachineConfig()) == hash(MachineConfig())


class TestModes:
    def test_mode_flag_matrix(self):
        assert not BASELINE.launch
        assert PRE_EXECUTION.launch and PRE_EXECUTION.steal
        assert PRE_EXECUTION.prefetch and PRE_EXECUTION.execute
        assert OVERHEAD_EXECUTE.execute and not OVERHEAD_EXECUTE.prefetch
        assert not OVERHEAD_SEQUENCE.execute and OVERHEAD_SEQUENCE.steal
        assert LATENCY_ONLY.prefetch and not LATENCY_ONLY.steal
        assert PERFECT_L2.perfect_l2 and not PERFECT_L2.launch

    def test_mode_names_unique(self):
        names = {
            m.name
            for m in (
                BASELINE,
                PRE_EXECUTION,
                OVERHEAD_EXECUTE,
                OVERHEAD_SEQUENCE,
                LATENCY_ONLY,
                PERFECT_L2,
            )
        }
        assert len(names) == 6


class TestSimStats:
    def test_derived_metrics(self):
        from repro.timing.stats import SimStats

        stats = SimStats(
            cycles=1000,
            instructions=500,
            l2_misses=100,
            misses_fully_covered=30,
            misses_partially_covered=20,
            pthread_launches=10,
            pthread_instructions=80,
            branches=50,
            mispredictions=5,
        )
        assert stats.ipc == 0.5
        assert stats.misses_covered == 50
        assert stats.coverage_fraction == 0.5
        assert stats.full_coverage_fraction == 0.3
        assert stats.avg_pthread_length == 8.0
        assert stats.instruction_overhead == 0.16
        assert stats.misprediction_rate == 0.1

    def test_zero_division_guards(self):
        from repro.timing.stats import SimStats

        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.coverage_fraction == 0.0
        assert stats.avg_pthread_length == 0.0
        assert stats.instruction_overhead == 0.0
        assert stats.misprediction_rate == 0.0
        assert stats.speedup_over(SimStats()) == 0.0
