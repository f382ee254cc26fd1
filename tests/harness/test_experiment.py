"""Tests for the end-to-end experiment pipeline (on the small pharmacy).

These are integration-grade but kept fast by overriding workload input
parameters through the runner's workload cache.
"""

import sys
import threading
from collections import Counter
from dataclasses import replace

import pytest

from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.model.params import SelectionConstraints
from repro.timing.config import BASELINE, MachineConfig
from repro.timing.core import TimingSimulator
from repro.workloads.suite import Workload, build


@pytest.fixture(scope="module")
def runner():
    """A runner whose pharmacy workload is pre-seeded with a small build."""
    runner = ExperimentRunner()
    for input_name in ("train", "test"):
        small = build(
            "pharmacy",
            input_name,
            n_xact=700 if input_name == "train" else 300,
            n_drugs=16384,
            hot_drugs=1024,
        )
        # The runner keys workloads on the *resolved* hierarchy, so one
        # seed covers both the ``hierarchy=None`` and explicit-default
        # spellings.
        runner._workloads[("pharmacy", input_name, small.hierarchy)] = small
    return runner


class TestPipeline:
    def test_basic_run(self, runner):
        result = runner.run(ExperimentConfig(workload="pharmacy"))
        assert result.baseline.ipc > 0
        assert result.preexec.instructions == result.baseline.instructions
        assert result.selection.pthreads
        assert result.preexec.pthread_launches > 0

    def test_speedup_positive_for_pharmacy(self, runner):
        result = runner.run(ExperimentConfig(workload="pharmacy"))
        assert result.speedup > 0.0
        assert result.coverage > 0.5

    def test_validation_modes_present(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", validate=True)
        )
        assert set(result.validation) == {
            "overhead_execute",
            "overhead_sequence",
            "latency_only",
        }

    def test_summary_row_keys(self, runner):
        row = runner.run(ExperimentConfig(workload="pharmacy")).summary_row()
        for key in (
            "base_ipc",
            "preexec_ipc",
            "speedup_pct",
            "coverage_pct",
            "full_coverage_pct",
            "overhead_pct",
            "pthread_len",
            "launches",
        ):
            assert key in row

    def test_caching_reuses_traces(self, runner):
        runner.run(ExperimentConfig(workload="pharmacy"))
        traces_before = {
            key: value
            for key, value in runner._memo.items()
            if key[0] == "trace"
        }
        assert traces_before
        runner.run(
            ExperimentConfig(
                workload="pharmacy",
                constraints=SelectionConstraints(max_pthread_length=16),
            )
        )
        for key in traces_before:
            assert runner._memo[key] is traces_before[key]


class TestStageCaching:
    def test_workload_key_resolves_default_hierarchy(self, runner):
        from repro.workloads.common import SUITE_HIERARCHY

        implicit = runner.workload("pharmacy", "train", None)
        explicit = runner.workload("pharmacy", "train", SUITE_HIERARCHY)
        assert implicit is explicit

    def test_one_trace_computation_across_two_cell_sweep(self, fresh_obs):
        _, registry = fresh_obs
        runner = fresh_small_runner()
        runner.run(ExperimentConfig(workload="pharmacy"))
        runner.run(
            ExperimentConfig(
                workload="pharmacy",
                constraints=SelectionConstraints(max_pthread_length=16),
            )
        )
        # Both cells share (workload, input, hierarchy): the trace and
        # baseline are computed once and hit in memory the second time.
        assert stage_count(registry, "trace", "misses") == 1
        assert stage_count(registry, "trace", "hits") == 1
        assert stage_count(registry, "baseline", "misses") == 1
        assert stage_count(registry, "baseline", "hits") == 1
        # The constraints differ, so selection legitimately reruns.
        assert stage_count(registry, "selection", "misses") == 2
        # One trace simulated, counted once.
        trace = runner.trace(runner.workload("pharmacy", "train"))
        assert (
            stage_count(registry, "trace", "instructions")
            == trace.instructions
        )

    def test_perfect_l2_cached_like_baseline(self, fresh_obs):
        _, registry = fresh_obs
        runner = fresh_small_runner()
        workload = runner.workload("pharmacy", "train")
        first = runner.perfect_l2(workload, MachineConfig())
        again = runner.perfect_l2(workload, MachineConfig())
        assert again is first
        assert first.ipc >= runner.baseline(workload, MachineConfig()).ipc
        assert stage_count(registry, "perfect_l2", "misses") == 1
        assert stage_count(registry, "perfect_l2", "hits") == 1

    def test_validation_counts_what_it_simulates(self, fresh_obs):
        _, registry = fresh_obs
        runner = fresh_small_runner()
        config = ExperimentConfig(workload="pharmacy", validate=True)
        first = runner.run(config)
        simulated = sum(
            stats.instructions + stats.pthread_instructions
            for stats in first.validation.values()
        )
        assert stage_count(registry, "validation", "misses") == 1
        assert stage_count(registry, "validation", "instructions") == simulated
        # The repeat simulates nothing, and its spans still open.
        again = runner.run(config)
        assert stage_count(registry, "validation", "hits") == 1
        assert stage_count(registry, "validation", "instructions") == simulated
        assert stage_count(registry, "timing", "hits") == 1
        assert set(again.timings) == set(first.timings)
        assert again.validation == first.validation

    def test_configs_selecting_the_same_pthreads_share_one_run(
        self, fresh_obs, monkeypatch
    ):
        _, registry = fresh_obs
        runs = count_runs(monkeypatch)
        runner = ExperimentRunner()
        default = runner.run(VPR_DEFAULT)
        narrow = runner.run(VPR_NARROW)
        # Selection reran; the p-threads it chose did not change.
        assert stage_count(registry, "selection", "misses") == 2
        assert runs["pre-exec"] == 1
        assert stage_count(registry, "timing", "misses") == 1
        assert stage_count(registry, "timing", "hits") == 1
        assert narrow.preexec.to_dict() == default.preexec.to_dict()
        # Another machine simulates again, and so does a fresh runner.
        runner.run(replace(VPR_NARROW, machine=MachineConfig(bw_seq=4)))
        assert runs["pre-exec"] == 2
        ExperimentRunner().run(VPR_NARROW)
        assert runs["pre-exec"] == 3
        assert stage_count(registry, "timing", "hits") == 1

    def test_threads_sharing_the_memo_get_the_serial_stats(self):
        """Threads that miss one key together each simulate and store
        equal stats; every answer equals the serial one."""
        runner = ExperimentRunner()
        serial = runner.run(VPR_DEFAULT).preexec.to_dict()
        # Keep trace and selection, drop every run.
        runs = [k for k in runner._memo if k[0] not in ("trace", "selection")]
        for key in runs:
            del runner._memo[key]
        results = []

        def work(config):
            results.append(runner.run(config).preexec.to_dict())

        threads = [
            threading.Thread(target=work, args=(config,))
            for config in (VPR_DEFAULT, VPR_NARROW, VPR_NARROW)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * len(threads)

    def test_granularity_rerun_computes_no_selection(self, fresh_obs):
        _, registry = fresh_obs
        runner = fresh_small_runner()
        config = ExperimentConfig(workload="pharmacy", granularity=3000)
        first = runner.run(config)
        regions = first.num_regions
        assert regions > 1
        # One cached selection per window, each counted.
        assert stage_count(registry, "selection", "misses") == regions
        assert stage_count(registry, "selection", "hits") == 0
        again = runner.run(config)
        assert stage_count(registry, "selection", "misses") == regions
        assert stage_count(registry, "selection", "hits") == regions
        assert again.summary_row() == first.summary_row()

    def test_prefix_after_granularity_is_a_memo_hit(self, fresh_obs):
        _, registry = fresh_obs
        runner = fresh_small_runner()
        runner.run(ExperimentConfig(workload="pharmacy", granularity=3000))
        misses = stage_count(registry, "selection", "misses")
        # The first window is the prefix's region, under the same key.
        prefix = runner.run(
            ExperimentConfig(workload="pharmacy", selection_prefix=3000)
        )
        assert stage_count(registry, "selection", "misses") == misses
        assert stage_count(registry, "selection", "hits") == 1
        assert prefix.selection.prediction.sample_instructions == 3000

    def test_timings_recorded_per_stage(self, runner):
        result = runner.run(ExperimentConfig(workload="pharmacy"))
        for stage in ("trace", "baseline", "selection", "timing"):
            assert stage in result.timings
            assert result.timings[stage] >= 0.0


def stage_count(registry, kind: str, outcome: str) -> int:
    return registry.counter(f"harness.stage.{kind}.{outcome}").value


#: Two vpr.r configs that select the same p-thread: its optimized body
#: has five instructions, and one p-thread leaves nothing to merge.
VPR_DEFAULT = ExperimentConfig(workload="vpr.r")
VPR_NARROW = ExperimentConfig(
    workload="vpr.r",
    constraints=SelectionConstraints(max_pthread_length=8, merge=False),
)


def count_runs(monkeypatch) -> Counter:
    """Count ``TimingSimulator.run`` calls by mode name."""
    calls: Counter = Counter()
    run = TimingSimulator.run

    def counted(self, mode=BASELINE, *args, **kwargs):
        calls[mode.name] += 1
        return run(self, mode, *args, **kwargs)

    monkeypatch.setattr(TimingSimulator, "run", counted)
    return calls


def fresh_small_runner() -> ExperimentRunner:
    """An unshared runner (counter tests need cold in-memory caches)."""
    runner = ExperimentRunner()
    small = build(
        "pharmacy", "train", n_xact=700, n_drugs=16384, hot_drugs=1024
    )
    runner._workloads[("pharmacy", "train", small.hierarchy)] = small
    return runner


class TestConfigurationKnobs:
    def test_granularity_produces_regions(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", granularity=3000)
        )
        assert result.num_regions > 1

    def test_granularity_rejects_fields_region_selection_ignores(self):
        with pytest.raises(ValueError, match="granularity"):
            ExperimentConfig(
                workload="pharmacy", granularity=3000, selection_prefix=1000
            )

    def test_selection_prefix(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", selection_prefix=2500)
        )
        assert (
            result.selection.prediction.sample_instructions <= 2500
        )

    def test_selection_on_test_input(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", selection_input="test")
        )
        # Measured on train regardless of the selection profile.
        baseline = runner.run(ExperimentConfig(workload="pharmacy")).baseline
        assert result.baseline.instructions == baseline.instructions

    def test_model_latency_override_changes_pthreads(self, runner):
        short = runner.run(
            ExperimentConfig(workload="pharmacy", model_mem_latency=10)
        )
        long = runner.run(
            ExperimentConfig(workload="pharmacy", model_mem_latency=140)
        )
        if short.selection.pthreads and long.selection.pthreads:
            assert (
                long.selection.prediction.avg_pthread_length
                >= short.selection.prediction.avg_pthread_length
            )

    def test_machine_width_flows_to_model(self, runner):
        result = runner.run(
            ExperimentConfig(
                workload="pharmacy", machine=MachineConfig(bw_seq=4)
            )
        )
        assert result.selection.params.bw_seq == 4

    def test_model_width_override(self, runner):
        result = runner.run(
            ExperimentConfig(workload="pharmacy", model_bw_seq=2)
        )
        assert result.selection.params.bw_seq == 2
