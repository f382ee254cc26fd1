"""Tests for the persistent artifact cache and the runner's stage counts."""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.harness.artifacts import (
    ArtifactCache,
    program_digest,
    publish_cache_gauges,
    source_digest,
    stable_key,
)
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.isa.opcodes import Opcode
from repro.memory.hierarchy import HierarchyConfig
from repro.obs import reset_registry
from repro.timing.config import MachineConfig
from repro.timing.stats import SimStats
from repro.workloads.suite import SUITE, build

SMALL_PHARMACY = dict(n_xact=700, n_drugs=16384, hot_drugs=1024)

#: The ``repro`` package under test.
PACKAGE = Path(repro.__file__).resolve().parent


def python(script, *args, package=PACKAGE, **env):
    """Start ``script`` in a fresh interpreter that imports ``package``."""
    environ = dict(os.environ, PYTHONPATH=str(package.parent), **env)
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        env=environ,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def output(process) -> str:
    """The stdout of a finished ``process``; its stderr if it failed."""
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    return stdout


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

    def test_enums_encode_by_name(self):
        # schedule_key holds each p-thread instruction's Opcode.
        add = stable_key("timing", schedule=((0, None, ((Opcode.ADD,),)),))
        sub = stable_key("timing", schedule=((0, None, ((Opcode.SUB,),)),))
        assert add != sub
        assert add == stable_key(
            "timing", schedule=((0, None, ((Opcode.ADD,),)),)
        )


#: Stores a small trace and baseline in the cache at ``argv[1]``; prints
#: where ``repro`` came from, the baseline's cycles and the stage counts.
STAGES = """
import json, sys
import repro
from repro.harness.artifacts import ArtifactCache
from repro.harness.experiment import ExperimentRunner
from repro.obs import get_registry
from repro.timing.config import MachineConfig
from repro.workloads.suite import build

runner = ExperimentRunner(artifacts=ArtifactCache(sys.argv[1]))
workload = build("pharmacy", "train", n_xact=300, n_drugs=4096, hot_drugs=512)
runner.trace(workload)
stats = runner.baseline(workload, MachineConfig())
print(json.dumps({
    "package": repro.__file__,
    "cycles": stats.cycles,
    "counts": {
        f"{kind}.{outcome}": get_registry().counter(
            f"harness.stage.{kind}.{outcome}"
        ).value
        for kind in ("trace", "baseline")
        for outcome in ("misses", "disk_hits")
    },
}))
"""

#: Appended to ``timing/core.py``: every timing run reports 1,000 more
#: cycles, as a timing-model edit would.
SLOWER_CORE = """

_unedited_run = TimingSimulator.run


def _edited_run(self, *args, **kwargs):
    stats = _unedited_run(self, *args, **kwargs)
    stats.cycles += 1000
    return stats


TimingSimulator.run = _edited_run
"""


class TestSourceDigest:
    def test_stable_within_a_process(self):
        assert source_digest() == source_digest()
        assert len(source_digest()) == 64

    def test_any_source_edit_recomputes(self, tmp_path):
        package = tmp_path / "src" / "repro"
        shutil.copytree(
            PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__")
        )
        cache = tmp_path / "cache"

        def stages():
            report = json.loads(output(python(STAGES, cache, package=package)))
            imported = Path(report["package"]).resolve()
            assert imported.parent == package.resolve()
            return report["cycles"], report["counts"]

        computed = {
            "trace.misses": 1,
            "trace.disk_hits": 0,
            "baseline.misses": 1,
            "baseline.disk_hits": 0,
        }
        cycles, counts = stages()
        assert counts == computed
        # Unedited, both stages come from the store.
        assert stages() == (
            cycles,
            {
                "trace.misses": 0,
                "trace.disk_hits": 1,
                "baseline.misses": 0,
                "baseline.disk_hits": 1,
            },
        )
        # A timing-model edit recomputes both, and the new cycles show.
        core = package / "timing" / "core.py"
        core.write_text(core.read_text() + SLOWER_CORE)
        assert stages() == (cycles + 1000, computed)
        # So does a comment in a module no stage imports.
        front_end = package / "serve" / "http.py"
        front_end.write_text(front_end.read_text() + "\n# edited\n")
        assert stages() == (cycles + 1000, computed)


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

    def test_build_order_ignores_the_hash_seed(self):
        # The data image is hashed in insertion order, so a generator
        # that stored words in set or str-keyed dict order would miss
        # (never hit wrongly) under another PYTHONHASHSEED.
        script = (
            "from repro.harness.artifacts import program_digest\n"
            "from repro.workloads.suite import SUITE, build\n"
            "for name in [*SUITE, 'pharmacy']:\n"
            "    print(name, program_digest(build(name, 'test').program))\n"
        )
        digests = [
            output(python(script, PYTHONHASHSEED=seed))
            for seed in ("0", "987")
        ]
        assert digests[0] == digests[1]
        assert len(digests[0].splitlines()) == len(SUITE) + 1


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
        key = stable_key("baseline", anything=1)
        assert cache.load("baseline", key) is None
        cache.store("baseline", key, stats.to_dict())
        loaded = SimStats.from_dict(cache.load("baseline", key))
        assert loaded == stats

    def test_pickle_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_key("selection", anything=2)
        cache.store("selection", key, {"pthreads": [1, 2, 3]})
        assert cache.load("selection", key) == {"pthreads": [1, 2, 3]}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_key("baseline", anything=3)
        cache.store("baseline", key, {"cycles": 1})
        cache.path("baseline", key).write_text("{ not json")
        assert cache.load("baseline", key) is None

    def test_unknown_kind_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(KeyError):
            cache.store("mystery", stable_key("mystery", anything=4), {})

    def test_entry_count_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(3):
            cache.store("baseline", stable_key("baseline", i=i), {"i": i})
        cache.store("selection", stable_key("selection", i=0), [0])
        counts = cache.entry_count()
        assert counts["baseline"] == 3
        assert counts["selection"] == 1
        assert cache.size_bytes() > 0
        assert cache.clear() == 4
        assert sum(cache.entry_count().values()) == 0

    def test_size_counts_only_the_kinds_the_cache_owns(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("baseline", stable_key("baseline", i=0), {"i": 0})
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
        key = stable_key("selection", anything=5)
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

    def test_processes_storing_one_key(self, tmp_path):
        # Sweep workers are processes, each storing under its own pid;
        # the parent loads the key the whole time they write it.
        cache = ArtifactCache(tmp_path / "cache")
        key = stable_key("baseline", anything=6)
        payload = {"cycles": list(range(20000))}
        start = tmp_path / "start"
        script = (
            "import os, sys, time\n"
            "from repro.harness.artifacts import ArtifactCache\n"
            "root, key, start = sys.argv[1:]\n"
            "cache = ArtifactCache(root)\n"
            "payload = {'cycles': list(range(20000))}\n"
            "print('ready', flush=True)\n"
            "while not os.path.exists(start):\n"
            "    time.sleep(0.001)\n"
            "for _ in range(30):\n"
            "    cache.store('baseline', key, payload)\n"
        )
        writers = [python(script, cache.root, key, start) for _ in range(3)]
        loads = []
        try:
            for writer in writers:
                assert writer.stdout.readline() == "ready\n"
            start.touch()
            deadline = time.monotonic() + 120
            while any(writer.poll() is None for writer in writers):
                assert time.monotonic() < deadline, "a writer never finished"
                loads.append(cache.load("baseline", key))
            for writer in writers:
                output(writer)
        finally:
            for writer in writers:
                writer.kill()
        loads.append(cache.load("baseline", key))
        assert all(load in (None, payload) for load in loads)
        assert loads[-1] == payload
        assert not list(cache.root.rglob("*.tmp"))


def stage_count(registry, kind: str, outcome: str) -> int:
    return registry.counter(f"harness.stage.{kind}.{outcome}").value


class TestRunnerIntegration:
    CACHED_KINDS = ("trace", "baseline", "selection", "perfect_l2")

    def test_warm_cache_rerun_computes_nothing(self, tmp_path, fresh_obs):
        config = ExperimentConfig(workload="pharmacy", validate=True)
        _, registry = fresh_obs

        cold = small_runner(tmp_path)
        first = cold.run(config)
        # Table 1's perfect-L2 run, the fourth persisted kind.
        first_l2 = cold.perfect_l2(
            cold.workload(config.workload, config.input_name), config.machine
        )
        for kind in self.CACHED_KINDS:
            assert stage_count(registry, kind, "misses") == 1, kind

        registry = reset_registry()
        warm = small_runner(tmp_path)
        second = warm.run(config)
        second_l2 = warm.perfect_l2(
            warm.workload(config.workload, config.input_name), config.machine
        )
        for kind in self.CACHED_KINDS:
            assert stage_count(registry, kind, "misses") == 0, kind
            assert stage_count(registry, kind, "disk_hits") == 1, kind
        assert registry.counter("harness.cache.disk_hits").value == 4
        assert second.summary_row() == first.summary_row()
        assert second_l2.ipc == first_l2.ipc

    def test_fresh_runner_takes_every_window_from_disk(
        self, tmp_path, fresh_obs
    ):
        config = ExperimentConfig(workload="pharmacy", granularity=2000)
        _, registry = fresh_obs
        first = small_runner(tmp_path).run(config)
        regions = first.num_regions
        assert regions > 1
        assert stage_count(registry, "selection", "misses") == regions

        registry = reset_registry()
        second = small_runner(tmp_path).run(config)
        assert stage_count(registry, "selection", "misses") == 0
        assert stage_count(registry, "selection", "disk_hits") == regions
        assert second.summary_row() == first.summary_row()

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
        cache.store("baseline", stable_key("baseline", i=0), {"i": 0})
        publish_cache_gauges(cache)
        assert registry.gauge("harness.cache.entries").value == 1
        assert registry.gauge("harness.cache.bytes").value == cache.size_bytes()
        publish_cache_gauges(None)
        assert registry.gauge("harness.cache.entries").value == 0
        assert registry.gauge("harness.cache.bytes").value == 0
