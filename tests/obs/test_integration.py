"""End-to-end observability: real pipeline runs populate the registry,
sweep workers ship spans/metrics back, and the exported snapshot passes
the catalog schema check."""

import pytest

from repro.harness.artifacts import ArtifactCache, publish_cache_gauges
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.harness.parallel import SweepExecutor
from repro.model.params import SelectionConstraints
from repro.obs import check_snapshot, load_snapshot, write_snapshot
from repro.workloads.suite import build

SMALL_PHARMACY = dict(
    n_xact=500, n_drugs=8192, hot_drugs=512, hot_fraction=0.45, seed=11
)

PIPELINE_STAGES = ("trace", "baseline", "selection", "timing")

#: Child spans of ``slice+select``, one per ``select_pthreads`` call.
SELECTION_STAGES = ("slice_trees", "select_trees", "merge")

#: Child spans of ``validation``, one per re-simulation, named by its
#: ``ExperimentResult.validation`` key.
VALIDATION_STAGES = ("overhead_execute", "overhead_sequence", "latency_only")


@pytest.fixture
def small_inputs(monkeypatch):
    """Shrink the pharmacy build everywhere — including fork workers."""
    from repro.workloads import pharmacy

    monkeypatch.setitem(pharmacy.INPUTS, "train", dict(SMALL_PHARMACY))


def seeded_runner() -> ExperimentRunner:
    runner = ExperimentRunner()
    small = build("pharmacy", "train", **SMALL_PHARMACY)
    runner._workloads[("pharmacy", "train", small.hierarchy)] = small
    return runner


def test_experiment_run_emits_nested_spans(fresh_obs):
    tracer, _ = fresh_obs
    seeded_runner().run(ExperimentConfig(workload="pharmacy"))
    (experiment,) = tracer.root.children
    assert experiment.name == "experiment"
    assert experiment.meta["workload"] == "pharmacy"
    names = [child.name for child in experiment.children]
    for stage in PIPELINE_STAGES:
        assert stage in names
    assert experiment.find("slice+select") is not None
    assert all(span.duration >= 0 for span in experiment.walk())


def test_slice_select_resolves_into_one_span_per_stage(fresh_obs):
    tracer, _ = fresh_obs
    runner = seeded_runner()
    result = runner.run(ExperimentConfig(workload="pharmacy"))
    # Stage-warm: the trace is cached, the narrower selection is not.
    runner.run(
        ExperimentConfig(
            workload="pharmacy", constraints=SelectionConstraints(scope=512)
        )
    )
    cold, warm = tracer.root.children
    for experiment, table in ((cold, ["slice_table"]), (warm, [])):
        slice_select = experiment.find("slice+select")
        # Exactly one of each per select_pthreads call, in pipeline
        # order, with nothing nested below them (no per-tree or per-body
        # spans) but the slice table the trace's first call builds.
        names = [child.name for child in slice_select.children]
        assert names == list(SELECTION_STAGES)
        slice_trees, *rest = slice_select.children
        assert [child.name for child in slice_trees.children] == table
        for child in rest:
            assert child.children == []
        assert (
            sum(c.duration for c in slice_select.children)
            <= slice_select.duration
        )
    (span,) = cold.find("slice_trees").children
    assert span.meta["scope"] == 1024 and span.meta["depth"] == 64
    assert span.meta["roots"] > 0 and span.meta["members"] >= span.meta["roots"]
    # The stage timings reported per result keep their keys.
    assert set(result.timings) == set(PIPELINE_STAGES)


def test_region_selection_emits_one_span_per_stage_per_region(fresh_obs):
    tracer, _ = fresh_obs
    result = seeded_runner().run(
        ExperimentConfig(workload="pharmacy", granularity=2000)
    )
    assert result.num_regions > 1
    (experiment,) = tracer.root.children
    selection = experiment.find("selection")
    # Each window is one cached selection, so one ``slice+select`` per
    # window, holding its three stage spans and nothing else: the first
    # window slices the trace into a table, the rest derive.
    windows = selection.children
    assert [w.name for w in windows] == ["slice+select"] * result.num_regions
    for position, window in enumerate(windows):
        assert [child.name for child in window.children] == list(
            SELECTION_STAGES
        )
        slice_trees, *rest = window.children
        table = ["slice_table"] if position == 0 else []
        assert [span.name for span in slice_trees.children] == table
        for child in rest:
            assert child.children == []
    assert set(result.timings) == set(PIPELINE_STAGES)


def test_validation_resolves_into_one_span_per_simulation(fresh_obs):
    tracer, _ = fresh_obs
    result = seeded_runner().run(
        ExperimentConfig(workload="pharmacy", validate=True)
    )
    (experiment,) = tracer.root.children
    (validation,) = [
        child for child in experiment.children if child.name == "validation"
    ]
    # Exactly three spans per cell and none below them: never one per
    # launch or access.
    assert [child.name for child in validation.children] == list(
        VALIDATION_STAGES
    )
    for child in validation.children:
        assert [span.name for span in child.walk()] == [child.name]
    assert sum(c.duration for c in validation.children) <= validation.duration
    assert set(result.validation) == set(VALIDATION_STAGES)
    # Perfect L2 is Table 1's run, not a validation mode.
    assert experiment.find("perfect_l2") is None
    baseline = experiment.find("baseline")
    assert baseline.meta == {"workload": "pharmacy", "input": "train"}
    # The stage timings reported per result keep their keys.
    assert set(result.timings) == set(PIPELINE_STAGES) | {"validation"}


def test_experiment_run_registers_split_pthread_counters(fresh_obs):
    _, registry = fresh_obs
    result = seeded_runner().run(ExperimentConfig(workload="pharmacy"))
    launches = registry.counter("timing.pthread.launches").value
    drops = registry.counter("timing.pthread.drops").value
    attempts = registry.counter("timing.pthread.attempts").value
    assert attempts == launches + drops
    assert launches == result.preexec.pthread_launches
    assert drops == result.preexec.pthread_drops


def test_parallel_sweep_merges_worker_spans_and_metrics(
    small_inputs, tmp_path, fresh_obs
):
    tracer, registry = fresh_obs
    executor = SweepExecutor(jobs=2, artifacts=ArtifactCache(tmp_path))
    configs = [
        ExperimentConfig(workload="pharmacy"),
        ExperimentConfig(
            workload="pharmacy",
            constraints=SelectionConstraints(max_pthread_length=16),
        ),
    ]
    results = executor.run(configs)

    (sweep,) = tracer.root.children
    assert sweep.name == "sweep"
    assert sweep.meta == {"cells": 2, "jobs": 2}
    experiments = [c for c in sweep.children if c.name == "experiment"]
    assert len(experiments) == 2
    # attach() tagged each worker subtree with its cell index, in order.
    assert [e.meta["cell"] for e in experiments] == [0, 1]
    for experiment in experiments:
        for stage in PIPELINE_STAGES + SELECTION_STAGES:
            assert experiment.find(stage) is not None

    # Worker metric snapshots accumulated into the coordinator registry.
    launches = registry.counter("timing.pthread.launches").value
    drops = registry.counter("timing.pthread.drops").value
    assert launches == sum(r.preexec.pthread_launches for r in results)
    assert drops == sum(r.preexec.pthread_drops for r in results)
    assert registry.counter("timing.runs").value >= 2
    assert registry.get("memory.l2.mshr_occupancy").count > 0


def test_snapshot_of_real_run_passes_catalog_check(tmp_path, fresh_obs):
    """`repro obs check` semantics: a pipeline run plus the snapshot-time
    cache gauges produce every catalog metric with the pinned type, and
    the harness counts come straight from the runner's stages."""
    _, registry = fresh_obs
    runner = seeded_runner()
    runner.run(ExperimentConfig(workload="pharmacy"))
    publish_cache_gauges(runner.artifacts)
    path = tmp_path / "metrics_snapshot.json"
    write_snapshot(path, registry)
    doc = load_snapshot(path)
    assert check_snapshot(doc) == []
    metrics = doc["metrics"]
    # trace, baseline, selection and timing each computed once.
    assert metrics["harness.cache.misses"]["value"] == 4
    assert metrics["harness.cache.hits"]["value"] == 0
    for kind in PIPELINE_STAGES:
        assert metrics[f"harness.stage.{kind}.misses"]["value"] == 1, kind
    # Registered at zero even though nothing ran.
    assert metrics["harness.stage.perfect_l2.misses"]["value"] == 0
