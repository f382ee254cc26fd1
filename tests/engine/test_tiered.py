"""Tiered-engine mechanics and the in-process compile memo.

The tiered engine is the timing simulator's.  The equivalence suite
proves its *results*; these tests pin its *mechanics*: a run compiles
one module holding every block of the program before the first
instruction, even when the run is too short to finish a loop, and
generated code lives only in the process that emitted it: nothing
reaches the artifact cache, a cleared memo emits and validates afresh,
and a memo hit reuses both the module and its translation-validation
verdict.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis import transval
from repro.analysis.report import VERIFY_ENV
from repro.engine import compiler
from repro.engine.compiler import (
    ENGINE_INTERP,
    ENGINE_TIERED,
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

#: A hot loop (3000 iterations, ~9000 instructions) followed by a cold
#: straight-line tail that runs once.  Block leaders: 0 (entry), 1
#: (loop target), 4 (loop fallthrough).
HOT_COLD_SOURCE = """
    addi r1, r0, 3000
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bgt  r1, r0, loop
    addi r3, r0, 7
    halt
"""

#: Stops inside the hot loop, before the cold tail ever runs.
SHORT_RUN = 2048


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
    """The one compile policy: the whole program, before the first
    instruction."""

    def test_default_run_compiles_one_whole_program_module(self, fresh_obs):
        _tracer, registry = fresh_obs
        program = _program()
        clear_compile_memo()
        sim, result = _run(program, ENGINE_TIERED)
        blocks = len(discover_blocks(sim.decoded))
        assert registry.counter("engine.compile.programs").value == 1
        assert registry.counter("engine.compile.blocks").value == blocks
        assert sim.last_tier == {"compiled_blocks": blocks}
        _sim, ref = _run(program, ENGINE_INTERP)
        assert result == ref

    def test_zero_threshold_compiles_every_block_up_front(self, monkeypatch):
        # A run that ends inside the loop still compiles the cold tail.
        program = _program()
        sim, result = _run(program, ENGINE_TIERED, max_instructions=SHORT_RUN)
        assert sim.last_tier["compiled_blocks"] == len(
            discover_blocks(sim.decoded)
        )
        _sim, ref = _run(program, ENGINE_INTERP, max_instructions=SHORT_RUN)
        assert result == ref

        # The module that ran is the one verify-codegen validates: the
        # validation reuses it instead of emitting another.
        def boom(*args, **kwargs):
            raise AssertionError("tiered run compiled a different module")

        monkeypatch.setattr(compiler, "_emit_timing_block", boom)
        assert sim.validate_codegen(
            launching=False, stealing=False, prefetching=False
        ).ok

    def test_zero_threshold_timing_counts_trigger_leaders(self, monkeypatch):
        program = _program()
        runs = {}
        for engine in (ENGINE_INTERP, ENGINE_TIERED):
            sim = TimingSimulator(
                program, HierarchyConfig(), pthreads=[_pthread()],
                engine=engine,
            )
            stats = sim.run(PRE_EXECUTION, max_instructions=SHORT_RUN)
            runs[engine] = (stats.to_dict(), list(sim.last_registers))
        blocks = discover_blocks(sim.decoded, extra_leaders=(TRIGGER_PC,))
        assert len(blocks) == len(discover_blocks(sim.decoded)) + 1
        assert sim.last_tier["compiled_blocks"] == len(blocks)
        assert runs[ENGINE_TIERED][0]["pthread_launches"] > 0
        assert runs[ENGINE_TIERED] == runs[ENGINE_INTERP]

        def boom(*args, **kwargs):
            raise AssertionError("tiered run compiled a different module")

        monkeypatch.setattr(compiler, "_emit_timing_block", boom)
        assert sim.validate_codegen(
            launching=True, stealing=True, prefetching=False
        ).ok


#: Run in a fresh process: a tiered baseline run and a tiered
#: pre-execution run, each of which must compile something.
_TIERED_RUNS = """
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
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src), str(root), env.get("PYTHONPATH")))
        )
        subprocess.run(
            [sys.executable, "-c", _TIERED_RUNS],
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
