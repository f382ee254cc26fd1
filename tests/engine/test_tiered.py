"""Tiered-engine mechanics and the in-process compile memo.

The tiered engine is the timing simulator's.  The equivalence suite
proves its *results*; these tests pin its *mechanics*: the
entry-count threshold compiles exactly the hot blocks, short runs
never pay for codegen, threshold 0 compiles every block before the
first instruction, and generated code lives only in the process that
emitted it: nothing reaches the artifact cache, a cleared memo emits
and validates afresh, and a memo hit reuses both the module and its
translation-validation verdict.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import transval
from repro.analysis.report import VERIFY_ENV
from repro.engine import compiler
from repro.engine.compiler import (
    ENGINE_INTERP,
    ENGINE_TIERED,
    TIER_ENV,
    TIER_SLICE,
    clear_compile_memo,
    compile_timing,
    discover_blocks,
)
from repro.engine.decode import DecodedProgram
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.memory import HierarchyConfig
from repro.pthreads.body import PThreadBody
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.timing.config import BASELINE, PRE_EXECUTION
from repro.timing.core import TimingSimulator
from tests.engine.test_compiler import BASELINE_SHAPE

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
    """One BASELINE timing run: the simulator, and its stats and
    committed registers as one comparable value."""
    sim = TimingSimulator(program, HierarchyConfig(), engine=engine)
    stats = sim.run(BASELINE, **kwargs)
    return sim, (stats.to_dict(), list(sim.last_registers))


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
        assert result == ref

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
        assert result == ref

    def test_unreachable_threshold_stays_interpreted(self, monkeypatch):
        monkeypatch.setenv(TIER_ENV, "1000000")
        program = _program()
        sim, result = _run(program, ENGINE_TIERED)
        assert sim.last_tier["tier_ups"] == 0
        _sim, ref = _run(program, ENGINE_INTERP)
        assert result == ref

    def test_zero_threshold_compiles_every_block_up_front(self, monkeypatch):
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
        assert result == ref

        # The module that ran is the one verify-codegen validates: the
        # validation reuses it instead of emitting another.
        def boom(*args, **kwargs):
            raise AssertionError("eager run compiled a different module")

        monkeypatch.setattr(compiler, "_emit_timing_block", boom)
        assert sim.validate_codegen(
            launching=False, stealing=False, prefetching=False
        ).ok

    def test_zero_threshold_timing_counts_trigger_leaders(self, monkeypatch):
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


#: Run in a fresh process: a tiered baseline run and a tiered
#: pre-execution run, each of which must compile something.
_EAGER_RUNS = """
from repro.memory import HierarchyConfig
from repro.timing.config import BASELINE, PRE_EXECUTION
from repro.timing.core import TimingSimulator
from tests.engine.test_tiered import _program, _pthread

program = _program()
baseline = TimingSimulator(program, HierarchyConfig(), engine="tiered")
baseline.run(BASELINE)
preexec = TimingSimulator(
    program, HierarchyConfig(), pthreads=[_pthread()], engine="tiered"
)
preexec.run(PRE_EXECUTION)
assert baseline.last_tier["compiled_blocks"] > 0
assert preexec.last_tier["compiled_blocks"] > 0
"""


class TestCompileMemo:
    def test_generated_code_never_reaches_the_artifact_cache(self, tmp_path):
        # In a fresh process, so that the only cache root it can ever
        # see is tmp_path.
        root = Path(__file__).resolve().parents[2]
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env[TIER_ENV] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src), str(root), env.get("PYTHONPATH")))
        )
        subprocess.run(
            [sys.executable, "-c", _EAGER_RUNS],
            env=env,
            cwd=root,
            check=True,
            timeout=120,
        )
        assert not (tmp_path / "codegen").exists()

    def test_compile_after_clearing_the_memo_emits_again(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        emitted = []
        real = compiler._emit_timing_block

        def counting(*args, **kwargs):
            emitted.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(compiler, "_emit_timing_block", counting)
        decoded = DecodedProgram(_program())
        clear_compile_memo()
        first = compile_timing(decoded, **BASELINE_SHAPE)
        blocks = len(emitted)
        assert blocks == len(discover_blocks(decoded))
        assert compile_timing(decoded, **BASELINE_SHAPE) is first
        assert len(emitted) == blocks
        clear_compile_memo()
        compile_timing(decoded, **BASELINE_SHAPE)
        assert len(emitted) == 2 * blocks
        assert not any(tmp_path.iterdir())

    def test_validation_verdict_lives_as_long_as_the_memo(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(VERIFY_ENV, "1")
        monkeypatch.setenv(TIER_ENV, "0")
        checked = []
        real = transval.validate_timing

        def counting(*args, **kwargs):
            checked.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(transval, "validate_timing", counting)
        program = _program()
        clear_compile_memo()
        _run(program, ENGINE_TIERED)
        assert len(checked) == 1
        # A second simulator in this process reuses the verdict...
        _run(program, ENGINE_TIERED)
        assert len(checked) == 1
        # ...but a compilation emitted afresh is validated afresh.
        clear_compile_memo()
        _run(program, ENGINE_TIERED)
        assert len(checked) == 2
        assert not any(tmp_path.iterdir())
