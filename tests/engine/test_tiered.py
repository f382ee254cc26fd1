"""Tiered-engine mechanics and the persistent codegen cache.

The equivalence suite proves the tiered engine's *results*; these
tests pin its *mechanics*: the entry-count threshold compiles exactly
the hot blocks, short runs never pay for codegen, threshold 0 compiles
every block before the first instruction, warm disk-cache hits skip
source emission entirely, and a corrupt cache entry degrades to a
recompile instead of an error.
"""

import pytest

from repro.engine import compiler
from repro.engine.codecache import reset_code_cache
from repro.engine.compiler import (
    ENGINE_INTERP,
    ENGINE_TIERED,
    TIER_ENV,
    TIER_SLICE,
    discover_blocks,
)
from repro.engine.functional import FunctionalSimulator
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.memory import HierarchyConfig
from repro.obs import reset_registry
from repro.pthreads.body import PThreadBody
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.timing.config import PRE_EXECUTION
from repro.timing.core import TimingSimulator

#: A hot loop (3000 iterations, ~9000 instructions — comfortably past
#: TIER_SLICE) followed by a cold straight-line tail that runs once.
#: Block leaders: 0 (entry), 1 (loop target), 4 (loop fallthrough).
HOT_COLD_SOURCE = """
    addi r1, r0, 3000
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bgt  r1, r0, loop
    addi r3, r0, 7
    halt
"""

HOT_LEADER = 1
COLD_LEADER = 4


def _program(name="tiered_test"):
    return assemble(HOT_COLD_SOURCE, name=name)


def _run(program, engine, **kwargs):
    sim = FunctionalSimulator(program, engine=engine)
    result = sim.run(**kwargs)
    return sim, result


#: Inside the loop block (1..3), so it only leads a block when the
#: p-thread it triggers can launch.
TRIGGER_PC = 2


def _pthread():
    body = PThreadBody([Instruction(Opcode.ADDI, rd=5, rs1=1, imm=-1, pc=2)])
    return StaticPThread(
        trigger_pc=TRIGGER_PC,
        body=body,
        target_load_pcs=(),
        prediction=PThreadPrediction(
            dc_trig=1,
            size=body.size,
            misses_covered=0,
            misses_fully_covered=0,
            lt_agg=0.0,
            oh_agg=0.0,
        ),
    )


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the codegen cache at a private root for the test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_code_cache()
    yield tmp_path
    reset_code_cache()


class TestTierThreshold:
    def test_hot_blocks_compile_cold_blocks_stay_interpreted(
        self, monkeypatch
    ):
        monkeypatch.setenv(TIER_ENV, "10")
        program = _program()
        sim, result = _run(program, ENGINE_TIERED)
        assert sim.last_engine == ENGINE_TIERED
        tier = sim.last_tier
        assert tier["tier_ups"] >= 1
        # Exactly the loop block crossed the threshold; the entry and
        # tail blocks each ran once and stay interpreted.
        assert tier["hot"] == (HOT_LEADER,)
        assert tier["compiled_blocks"] == 1
        assert tier["interp_blocks"] >= 1
        # And the mixed run still matches the pure interpreter.
        _sim, ref = _run(program, ENGINE_INTERP)
        assert result.to_dict() == ref.to_dict()

    def test_short_run_never_compiles(self, monkeypatch):
        monkeypatch.setenv(TIER_ENV, "10")
        program = _program()
        sim, result = _run(
            program, ENGINE_TIERED, max_instructions=TIER_SLICE // 2
        )
        assert sim.last_tier["tier_ups"] == 0
        assert sim.last_tier["compiled_blocks"] == 0
        _sim, ref = _run(
            program, ENGINE_INTERP, max_instructions=TIER_SLICE // 2
        )
        assert result.to_dict() == ref.to_dict()

    def test_unreachable_threshold_stays_interpreted(self, monkeypatch):
        monkeypatch.setenv(TIER_ENV, "1000000")
        program = _program()
        sim, result = _run(program, ENGINE_TIERED)
        assert sim.last_tier["tier_ups"] == 0
        _sim, ref = _run(program, ENGINE_INTERP)
        assert result.to_dict() == ref.to_dict()

    def test_zero_threshold_compiles_every_block_up_front(
        self, cache_dir, monkeypatch
    ):
        # A run too short to reach the first scan at any positive
        # threshold still compiles the whole program, in one tier-up.
        monkeypatch.setenv(TIER_ENV, "0")
        program = _program()
        limit = TIER_SLICE // 2
        sim, result = _run(program, ENGINE_TIERED, max_instructions=limit)
        tier = sim.last_tier
        assert tier["tier_ups"] == 1
        assert tier["compiled_blocks"] == len(discover_blocks(sim.decoded))
        assert tier["interp_blocks"] == 0
        _sim, ref = _run(program, ENGINE_INTERP, max_instructions=limit)
        assert result.to_dict() == ref.to_dict()

        # The module that ran is the one verify-codegen validates: the
        # validation reuses it instead of emitting another.
        def boom(*args, **kwargs):
            raise AssertionError("eager run compiled a different module")

        monkeypatch.setattr(compiler, "_emit_functional_block", boom)
        assert sim.validate_codegen(tracing=True, caching=False).ok

    def test_zero_threshold_timing_counts_trigger_leaders(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.setenv(TIER_ENV, "0")
        program = _program()
        limit = TIER_SLICE // 2
        runs = {}
        for engine in (ENGINE_INTERP, ENGINE_TIERED):
            sim = TimingSimulator(
                program, HierarchyConfig(), pthreads=[_pthread()],
                engine=engine,
            )
            stats = sim.run(PRE_EXECUTION, max_instructions=limit)
            runs[engine] = (stats.to_dict(), list(sim.last_registers))
        blocks = discover_blocks(sim.decoded, extra_leaders=(TRIGGER_PC,))
        assert len(blocks) == len(discover_blocks(sim.decoded)) + 1
        tier = sim.last_tier
        assert tier["tier_ups"] == 1
        assert tier["compiled_blocks"] == len(blocks)
        assert tier["interp_blocks"] == 0
        assert runs[ENGINE_TIERED][0]["pthread_launches"] > 0
        assert runs[ENGINE_TIERED] == runs[ENGINE_INTERP]

        def boom(*args, **kwargs):
            raise AssertionError("eager run compiled a different module")

        monkeypatch.setattr(compiler, "_emit_timing_block", boom)
        assert sim.validate_codegen(
            launching=True, stealing=True, prefetching=False
        ).ok

    def test_negative_threshold_raises(self, monkeypatch):
        monkeypatch.setenv(TIER_ENV, "-1")
        with pytest.raises(ValueError, match=TIER_ENV):
            _run(_program(), ENGINE_TIERED)


def codegen_count(registry, outcome: str) -> int:
    return registry.counter(f"engine.codegen.cache_{outcome}").value


class TestCodeCache:
    def test_warm_disk_hit_skips_emission(
        self, cache_dir, monkeypatch, fresh_obs
    ):
        _, registry = fresh_obs
        monkeypatch.setenv(TIER_ENV, "0")
        program = _program()
        _sim, cold = _run(program, ENGINE_TIERED)
        assert codegen_count(registry, "misses") >= 1

        # Fresh process-state: new singleton, new simulator, and source
        # emission booby-trapped — the warm run must never reach it.
        reset_code_cache()
        registry = reset_registry()

        def boom(*args, **kwargs):
            raise AssertionError("emission not skipped on warm cache")

        monkeypatch.setattr(compiler, "_emit_functional_block", boom)
        sim, warm = _run(program, ENGINE_TIERED)
        assert sim.last_tier["interp_blocks"] == 0
        assert warm.to_dict() == cold.to_dict()
        assert codegen_count(registry, "hits") >= 1
        assert codegen_count(registry, "misses") == 0

    def test_tiered_engine_hits_the_same_cache(
        self, cache_dir, monkeypatch, fresh_obs
    ):
        monkeypatch.setenv(TIER_ENV, "10")
        program = _program()
        _sim, cold = _run(program, ENGINE_TIERED)
        reset_code_cache()
        registry = reset_registry()
        sim, warm = _run(program, ENGINE_TIERED)
        assert sim.last_tier["tier_ups"] >= 1
        assert warm.to_dict() == cold.to_dict()
        assert codegen_count(registry, "hits") >= 1

    def test_corrupt_entry_falls_back_to_recompile(
        self, cache_dir, monkeypatch, fresh_obs
    ):
        monkeypatch.setenv(TIER_ENV, "0")
        program = _program()
        _sim, cold = _run(program, ENGINE_TIERED)
        entries = list(cache_dir.glob("codegen/*/*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{definitely not json")

        reset_code_cache()
        registry = reset_registry()
        sim, warm = _run(program, ENGINE_TIERED)
        assert sim.last_tier["interp_blocks"] == 0
        assert warm.to_dict() == cold.to_dict()
        # The corrupt load counted as a miss and was recomputed.
        assert codegen_count(registry, "misses") >= 1
        assert codegen_count(registry, "hits") == 0
