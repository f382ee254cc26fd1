"""Tests for the basic-block specializing compiler and the engine seam.

Only the timing simulator has a compiled engine; the functional
simulator has one engine and takes no engine selection.
"""

import pytest

from repro.engine.compiler import (
    ENGINE_INTERP,
    ENGINE_TIERED,
    MAX_PROGRAM,
    compile_timing,
    discover_blocks,
    resolve_engine,
)
from repro.engine.decode import DecodedProgram
from repro.isa import assemble
from repro.memory import HierarchyConfig
from repro.timing.config import BASELINE
from repro.timing.core import TimingSimulator

LOOP_SOURCE = """
    addi r1, r0, 3
loop:
    addi r2, r2, 10
    addi r1, r1, -1
    bgt  r1, r0, loop
    halt
"""

CALL_SOURCE = """
    jal ra, func
    addi r2, r0, 1
    halt
func:
    addi r3, r0, 5
    jr ra
"""


def decoded(source):
    return DecodedProgram(assemble(source))


def timing_sim(program, engine=None):
    return TimingSimulator(program, HierarchyConfig(), engine=engine)


#: What a BASELINE run of the default machine compiles.
BASELINE_SHAPE = dict(
    window=128,
    bw_seq=8,
    dispatch_latency=2,
    mispredict_penalty=10,
    forward_latency=2,
    launching=False,
    stealing=False,
    prefetching=False,
    trigger_pcs=frozenset(),
    hinted_pcs=frozenset(),
)


class TestResolveEngine:
    def test_default_is_tiered(self):
        assert resolve_engine() == ENGINE_TIERED

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("turbo")

    def test_compiled_is_not_an_engine(self):
        with pytest.raises(ValueError, match="'tiered' or 'interp'"):
            resolve_engine("compiled")
        with pytest.raises(ValueError):
            timing_sim(assemble(LOOP_SOURCE), engine="compiled")


class TestDiscoverBlocks:
    def test_blocks_partition_program(self):
        program = decoded(LOOP_SOURCE)
        blocks = discover_blocks(program)
        covered = []
        for start, end in blocks:
            assert start < end
            covered.extend(range(start, end))
        assert covered == list(range(len(program)))

    def test_branch_target_and_fallthrough_are_leaders(self):
        blocks = discover_blocks(decoded(LOOP_SOURCE))
        leaders = {start for start, _ in blocks}
        # loop: label (branch target) and the instruction after bgt.
        assert 1 in leaders
        assert 4 in leaders

    def test_terminators_end_blocks(self):
        program = decoded(CALL_SOURCE)
        blocks = discover_blocks(program)
        kind_ends = {end - 1 for _, end in blocks}
        # jal (pc 0), halt (pc 2), jr (pc 4) all terminate blocks.
        assert {0, 2, 4} <= kind_ends

    def test_extra_leaders_split_blocks(self):
        program = decoded(LOOP_SOURCE)
        plain = {s for s, _ in discover_blocks(program)}
        split = {s for s, _ in discover_blocks(program, extra_leaders=(2,))}
        assert split == plain | {2}


class TestCompileTiming:
    def test_compiles_block_table(self):
        compiled = compile_timing(decoded(LOOP_SOURCE), **BASELINE_SHAPE)
        assert compiled is not None
        assert compiled.num_blocks == len(compiled.starts)
        assert compiled.max_len >= 1

    def test_oversized_program_falls_back(self):
        program = decoded(LOOP_SOURCE)
        real_length = len(program)
        try:
            program.kind.extend([program.kind[0]] * MAX_PROGRAM)
            assert compile_timing(program, **BASELINE_SHAPE) is None
        finally:
            del program.kind[real_length:]


class TestEngineSeam:
    def test_last_engine_reflects_run(self):
        program = assemble(LOOP_SOURCE)
        sim = timing_sim(program, engine="tiered")
        sim.run(BASELINE)
        assert sim.last_engine == ENGINE_TIERED
        sim = timing_sim(program, engine="interp")
        sim.run(BASELINE)
        assert sim.last_engine == ENGINE_INTERP

    def test_engines_agree_on_call_return(self):
        program = assemble(CALL_SOURCE)
        results = {}
        for engine in (ENGINE_INTERP, ENGINE_TIERED):
            sim = timing_sim(program, engine=engine)
            stats = sim.run(BASELINE)
            results[engine] = (stats.to_dict(), list(sim.last_registers))
            assert sim.last_engine == engine
        assert sim.last_tier["compiled_blocks"] == len(
            discover_blocks(sim.decoded)
        )
        assert results[ENGINE_INTERP] == results[ENGINE_TIERED]

    def test_computed_jump_into_block_interior(self):
        # jr lands on pc 6, which is mid-block (5..7 is one straight
        # line): the dispatcher must fall back to the interpreter for
        # the partial block, then resume compiled execution.
        source = """
            addi r9, r0, 6
            addi r2, r0, 0
            jr   r9
            addi r2, r2, 100
            addi r2, r2, 200
            addi r2, r2, 1
            addi r2, r2, 2
            addi r2, r2, 4
            halt
        """
        program = assemble(source)
        results = {}
        for engine in (ENGINE_INTERP, ENGINE_TIERED):
            sim = timing_sim(program, engine=engine)
            stats = sim.run(BASELINE)
            assert sim.last_engine == engine
            results[engine] = (stats.to_dict(), list(sim.last_registers))
            assert sim.last_registers[2] == 6
        assert sim.last_tier["compiled_blocks"] == len(
            discover_blocks(sim.decoded)
        )
        assert results[ENGINE_INTERP] == results[ENGINE_TIERED]
