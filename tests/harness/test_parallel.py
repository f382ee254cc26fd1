"""Tests for ExperimentRunner.run_all, serial and over a process pool.

The serial/parallel equivalence test pins down the guarantee README.md
documents: a sweep run with worker processes produces exactly the same
results as the jobs=1 serial path.
"""

import pickle

import pytest

from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.harness.artifacts import ArtifactCache
from repro.harness.parallel import SweepError, resolve_jobs
from repro.model.params import SelectionConstraints
from repro.obs import reset_registry
from repro.serve.protocol import result_payload
from repro.workloads.suite import build

SMALL_PHARMACY = dict(
    n_xact=500, n_drugs=8192, hot_drugs=512, hot_fraction=0.45, seed=11
)


@pytest.fixture
def small_inputs(monkeypatch):
    """Shrink the pharmacy build everywhere — including fork workers."""
    from repro.workloads import pharmacy

    monkeypatch.setitem(pharmacy.INPUTS, "train", dict(SMALL_PHARMACY))


def seeded_runner(jobs: int = 1) -> ExperimentRunner:
    runner = ExperimentRunner(jobs=jobs)
    small = build("pharmacy", "train", **SMALL_PHARMACY)
    runner._workloads[("pharmacy", "train", small.hierarchy)] = small
    return runner


TWO_CELLS = [
    ExperimentConfig(workload="pharmacy"),
    ExperimentConfig(
        workload="pharmacy",
        constraints=SelectionConstraints(max_pthread_length=16),
    ),
]

#: A cell that fails (an unknown input), run between the two good ones.
BAD_CELL = ExperimentConfig(workload="pharmacy", input_name="nope")
GOOD_BAD_GOOD = [TWO_CELLS[0], BAD_CELL, TWO_CELLS[1]]

#: Modules of a cell's inputs (trace arrays, memory image, workload),
#: which a shipped result must not name.
INPUT_MODULES = (
    "repro.engine.trace",
    "repro.memory.main_memory",
    "repro.workloads.suite",
    "numpy",
)


def measured(result):
    """Everything a result reports except wall-clock timings."""
    payload = result_payload(result)
    payload.pop("timings")
    return payload


def assert_only_bad_cell_failed(excinfo, tracer):
    """The SweepError names the bad cell alone, with its traceback, and
    the cell after it still ran to the end."""
    (failure,) = excinfo.value.failures
    assert failure.config == BAD_CELL
    assert "KeyError" in failure.error
    assert "nope" in str(excinfo.value)
    (sweep,) = tracer.root.children
    cells = [span for span in sweep.children if span.name == "experiment"]
    assert [span.meta["input"] for span in cells] == ["train", "nope", "train"]
    assert cells[2].find("timing") is not None


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_cpu_count_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() >= 1

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_nonpositive(self, jobs):
        with pytest.raises(ValueError):
            resolve_jobs(jobs)


class TestRunnerJobs:
    def test_defaults_to_one_job(self):
        assert ExperimentRunner().jobs == 1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_nonpositive(self, jobs):
        with pytest.raises(ValueError, match="job count"):
            ExperimentRunner(jobs=jobs)


class TestSerialPath:
    def test_empty_sweep(self):
        assert seeded_runner().run_all([]) == []

    def test_results_index_aligned(self):
        results = seeded_runner().run_all(TWO_CELLS)
        assert [r.config for r in results] == TWO_CELLS

    def test_cell_error_captured(self, fresh_obs):
        tracer, _ = fresh_obs
        with pytest.raises(SweepError) as excinfo:
            seeded_runner().run_all(GOOD_BAD_GOOD)
        assert_only_bad_cell_failed(excinfo, tracer)

    def test_run_raises_sweep_error(self):
        # One SweepError lists every failed cell, in input order.
        other = ExperimentConfig(workload="pharmacy", input_name="nada")
        with pytest.raises(SweepError) as excinfo:
            seeded_runner().run_all([BAD_CELL, other])
        assert [f.config for f in excinfo.value.failures] == [BAD_CELL, other]
        assert "2 sweep cell(s) failed" in str(excinfo.value)

    def test_single_cell_stays_in_process(self):
        # Even with jobs > 1, one cell runs on the runner itself.
        runner = seeded_runner(jobs=4)
        runner.run_all([ExperimentConfig(workload="pharmacy")])
        assert [kind for kind, _ in runner._memo].count("trace") == 1


class TestParallelPath:
    def test_parallel_matches_serial(self, small_inputs, tmp_path):
        expected = [measured(r) for r in seeded_runner().run_all(TWO_CELLS)]

        parallel = ExperimentRunner(jobs=2, artifacts=ArtifactCache(tmp_path))
        results = parallel.run_all(TWO_CELLS)
        assert [r.config for r in results] == TWO_CELLS
        assert [measured(r) for r in results] == expected
        # A worker ships a cell's outputs, not its trace or workload.
        for result in results:
            shipped = pickle.dumps(result)
            assert len(shipped) < 16 * 1024
            for module in INPUT_MODULES:
                assert module.encode() not in shipped, module

    def test_parallel_counts_match_serial(
        self, small_inputs, fresh_obs, monkeypatch
    ):
        # Every worker cell ships its stage counts back, so the
        # coordinator's registry holds what one process counts.  The
        # cells share no stage, so no count depends on which worker
        # ran which cell.
        from repro.workloads import pharmacy

        monkeypatch.setitem(
            pharmacy.INPUTS, "test", dict(SMALL_PHARMACY, seed=13)
        )
        cells = [
            ExperimentConfig(workload="pharmacy"),
            ExperimentConfig(workload="pharmacy", input_name="test"),
        ]

        def stage_counts(jobs):
            registry = reset_registry()
            ExperimentRunner(jobs=jobs).run_all(cells)
            return {
                name: entry["value"]
                for name, entry in registry.snapshot().items()
                if name.startswith("harness.")
            }

        serial = stage_counts(1)
        for kind in ("trace", "baseline", "selection", "timing"):
            assert serial[f"harness.stage.{kind}.misses"] == 2, kind
        assert serial["harness.cache.misses"] == 8
        assert stage_counts(2) == serial

    def test_parallel_cell_error_does_not_kill_sweep(
        self, small_inputs, tmp_path, fresh_obs
    ):
        tracer, _ = fresh_obs
        runner = ExperimentRunner(jobs=2, artifacts=ArtifactCache(tmp_path))
        with pytest.raises(SweepError) as excinfo:
            runner.run_all(GOOD_BAD_GOOD)
        assert_only_bad_cell_failed(excinfo, tracer)
