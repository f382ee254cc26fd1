"""Tests for the persistent artifact cache and the runner's stage counts."""

import json
import sys
import threading

import pytest

from repro.harness.artifacts import (
    ArtifactCache,
    program_digest,
    publish_cache_gauges,
    stable_key,
)
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.memory.hierarchy import HierarchyConfig
from repro.obs import reset_registry
from repro.timing.config import MachineConfig
from repro.timing.stats import SimStats
from repro.workloads.suite import build

SMALL_PHARMACY = dict(n_xact=700, n_drugs=16384, hot_drugs=1024)


def small_runner(cache_dir) -> ExperimentRunner:
    """A cache-backed runner pre-seeded with a small pharmacy build."""
    runner = ExperimentRunner(
        artifacts=ArtifactCache(cache_dir) if cache_dir else None
    )
    for input_name in ("train", "test"):
        small = build("pharmacy", input_name, **SMALL_PHARMACY)
        runner._workloads[
            ("pharmacy", input_name, small.hierarchy)
        ] = small
    return runner


class TestStableKey:
    def test_deterministic(self):
        a = stable_key("trace", workload="mcf", machine=MachineConfig())
        b = stable_key("trace", workload="mcf", machine=MachineConfig())
        assert a == b and len(a) == 64

    def test_sensitive_to_parts(self):
        base = stable_key("trace", workload="mcf", machine=MachineConfig())
        assert base != stable_key(
            "trace", workload="gcc", machine=MachineConfig()
        )
        assert base != stable_key(
            "trace", workload="mcf", machine=MachineConfig(bw_seq=4)
        )
        assert base != stable_key(
            "baseline", workload="mcf", machine=MachineConfig()
        )

    def test_nested_dataclasses_canonicalized(self):
        a = stable_key("baseline", hierarchy=HierarchyConfig())
        b = stable_key("baseline", hierarchy=HierarchyConfig())
        c = stable_key("baseline", hierarchy=HierarchyConfig(mem_latency=140))
        assert a == b
        assert a != c

    def test_rejects_unencodable(self):
        with pytest.raises(TypeError):
            stable_key("trace", payload=object())


class TestProgramDigest:
    def test_same_build_same_digest(self):
        a = build("pharmacy", "train", **SMALL_PHARMACY)
        b = build("pharmacy", "train", **SMALL_PHARMACY)
        assert program_digest(a.program) == program_digest(b.program)

    def test_different_input_different_digest(self):
        a = build("pharmacy", "train", **SMALL_PHARMACY)
        b = build("pharmacy", "train", n_xact=300, n_drugs=16384, hot_drugs=1024)
        assert program_digest(a.program) != program_digest(b.program)

    def test_memoized_on_program(self):
        workload = build("pharmacy", "train", **SMALL_PHARMACY)
        first = program_digest(workload.program)
        assert workload.program._repro_digest == first
        assert program_digest(workload.program) == first


class TestFromEnv:
    def test_default_root(self):
        cache = ArtifactCache.from_env({})
        assert cache is not None
        assert cache.root.name == "repro"

    def test_custom_root(self, tmp_path):
        cache = ArtifactCache.from_env({"REPRO_CACHE_DIR": str(tmp_path)})
        assert cache.root == tmp_path

    @pytest.mark.parametrize("value", ["", "0", "off", "OFF", "none", "disabled"])
    def test_disabled(self, value):
        assert ArtifactCache.from_env({"REPRO_CACHE_DIR": value}) is None


class TestStorage:
    def test_json_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stats = SimStats(mode="baseline", cycles=100, instructions=80)
        stats.miss_exposure = {12: [3, 210.0]}
        key = cache.key("baseline", anything=1)
        assert cache.load("baseline", key) is None
        cache.store("baseline", key, stats.to_dict())
        loaded = SimStats.from_dict(cache.load("baseline", key))
        assert loaded == stats

    def test_pickle_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key("selection", anything=2)
        cache.store("selection", key, {"pthreads": [1, 2, 3]})
        assert cache.load("selection", key) == {"pthreads": [1, 2, 3]}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key("baseline", anything=3)
        cache.store("baseline", key, {"cycles": 1})
        cache.path("baseline", key).write_text("{ not json")
        assert cache.load("baseline", key) is None

    def test_unknown_kind_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(KeyError):
            cache.key("mystery", anything=4)

    def test_entry_count_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(3):
            cache.store("baseline", cache.key("baseline", i=i), {"i": i})
        cache.store("selection", cache.key("selection", i=0), [0])
        counts = cache.entry_count()
        assert counts["baseline"] == 3
        assert counts["selection"] == 1
        assert cache.size_bytes() > 0
        assert cache.clear() == 4
        assert sum(cache.entry_count().values()) == 0

    def test_size_counts_only_the_kinds_the_cache_owns(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("baseline", cache.key("baseline", i=0), {"i": 0})
        owned = cache.size_bytes("baseline")
        # A retired kind's directory, as an older tree left it.
        stray = tmp_path / "codegen" / "ab"
        stray.mkdir(parents=True)
        (stray / "ab12.json").write_text("x" * 4096)
        assert cache.size_bytes() == owned
        assert sum(cache.entry_count().values()) == 1
        with pytest.raises(KeyError):
            cache.size_bytes("codegen")

    def test_threads_storing_one_key(self, tmp_path):
        # Serve worker threads share one process id, so only the thread
        # id keeps their temporary names apart.
        cache = ArtifactCache(tmp_path)
        key = cache.key("selection", anything=5)
        payload = {"pthreads": list(range(2000))}
        writers = 4
        barrier = threading.Barrier(writers, timeout=30)
        errors = []

        def store():
            barrier.wait()
            for _ in range(40):
                try:
                    cache.store("selection", key, payload)
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=store) for _ in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert cache.load("selection", key) == payload
        assert list(cache.path("selection", key).parent.iterdir()) == [
            cache.path("selection", key)
        ]


def stage_count(registry, kind: str, outcome: str) -> int:
    return registry.counter(f"harness.stage.{kind}.{outcome}").value


class TestRunnerIntegration:
    CACHED_KINDS = ("trace", "baseline", "selection", "perfect_l2")

    def test_warm_cache_rerun_computes_nothing(self, tmp_path, fresh_obs):
        config = ExperimentConfig(workload="pharmacy", validate=True)
        _, registry = fresh_obs

        cold = small_runner(tmp_path)
        first = cold.run(config)
        for kind in self.CACHED_KINDS:
            assert stage_count(registry, kind, "misses") == 1, kind

        registry = reset_registry()
        warm = small_runner(tmp_path)
        second = warm.run(config)
        for kind in self.CACHED_KINDS:
            assert stage_count(registry, kind, "misses") == 0, kind
            assert stage_count(registry, kind, "disk_hits") == 1, kind
        assert registry.counter("harness.cache.disk_hits").value == 4
        assert second.summary_row() == first.summary_row()
        assert (
            second.validation["perfect_l2"].ipc
            == first.validation["perfect_l2"].ipc
        )

    def test_cache_artifacts_are_content_addressed(self, tmp_path):
        runner = small_runner(tmp_path)
        runner.run(ExperimentConfig(workload="pharmacy"))
        cache = runner.artifacts
        trace_files = list((cache.root / "trace").glob("*/*.json"))
        assert len(trace_files) == 1
        payload = json.loads(trace_files[0].read_text())
        assert payload["instructions"] > 0

    def test_disabled_cache_keeps_everything_in_memory(
        self, tmp_path, fresh_obs
    ):
        _, registry = fresh_obs
        runner = small_runner(None)
        runner.run(ExperimentConfig(workload="pharmacy"))
        assert registry.counter("harness.cache.disk_hits").value == 0
        assert stage_count(registry, "trace", "misses") == 1


class TestCacheGauges:
    def test_gauges_read_the_store_or_zero(self, tmp_path, fresh_obs):
        _, registry = fresh_obs
        cache = ArtifactCache(tmp_path)
        cache.store("baseline", cache.key("baseline", i=0), {"i": 0})
        publish_cache_gauges(cache)
        assert registry.gauge("harness.cache.entries").value == 1
        assert registry.gauge("harness.cache.bytes").value == cache.size_bytes()
        publish_cache_gauges(None)
        assert registry.gauge("harness.cache.entries").value == 0
        assert registry.gauge("harness.cache.bytes").value == 0
