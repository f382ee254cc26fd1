"""Tests for the functional simulator."""

import pytest

from repro.engine.functional import (
    ExecutionLimitExceeded,
    FunctionalResult,
    FunctionalSimulator,
    run_program,
)
from repro.isa import DataImage, assemble
from repro.memory.hierarchy import MemoryLevel


class TestBasicExecution:
    def test_arithmetic_and_halt(self):
        program = assemble(
            """
            addi r1, r0, 6
            addi r2, r0, 7
            mul  r3, r1, r2
            halt
            """
        )
        result = run_program(program)
        assert result.halted
        assert result.registers[3] == 42
        assert result.instructions == 4

    def test_r0_writes_discarded(self):
        program = assemble("addi r0, r0, 99\nhalt")
        result = run_program(program)
        assert result.registers[0] == 0

    def test_memory_round_trip(self):
        program = assemble(
            """
            addi r1, r0, 1000
            addi r2, r0, 55
            sw   r2, 0(r1)
            lw   r3, 0(r1)
            halt
            """
        )
        result = run_program(program)
        assert result.registers[3] == 55
        assert result.memory.load(1000) == 55

    def test_branches_taken_and_not(self):
        program = assemble(
            """
                addi r1, r0, 3
            loop:
                addi r2, r2, 10
                addi r1, r1, -1
                bgt  r1, r0, loop
                halt
            """
        )
        result = run_program(program)
        assert result.registers[2] == 30
        assert result.branches == 3

    def test_jal_jr_call_return(self):
        program = assemble(
            """
                jal ra, func
                addi r2, r0, 1
                halt
            func:
                addi r3, r0, 5
                jr ra
            """
        )
        result = run_program(program)
        assert result.halted
        assert result.registers[2] == 1
        assert result.registers[3] == 5

    def test_instruction_limit(self):
        program = assemble("loop:\nj loop")
        result = run_program(program, max_instructions=100)
        assert not result.halted
        assert result.instructions == 100

    def test_strict_limit_raises(self):
        program = assemble("loop:\nj loop")
        sim = FunctionalSimulator(program)
        with pytest.raises(ExecutionLimitExceeded):
            sim.run(max_instructions=10, strict_limit=True)

    def test_data_image_loaded(self):
        data = DataImage()
        data.store_word(4096, 77)
        program = assemble(
            "addi r1, r0, 4096\nlw r2, 0(r1)\nhalt", data=data
        )
        assert run_program(program).registers[2] == 77


class TestTraceGeneration:
    def test_dependence_edges(self, sum_loop_program, tiny_hierarchy):
        result = run_program(sum_loop_program, tiny_hierarchy)
        trace = result.trace
        # Find a load and check its address producer is the preceding add.
        import numpy as np

        load_indices = np.nonzero(trace.level[: len(trace)])[0]
        first_load = int(load_indices[0])
        producer = int(trace.dep1[first_load])
        assert producer >= 0
        assert trace.pc[producer] == trace.pc[first_load] - 1

    def test_store_to_load_memdep(self):
        program = assemble(
            """
            addi r1, r0, 2048
            addi r2, r0, 9
            sw   r2, 0(r1)
            lw   r3, 0(r1)
            halt
            """
        )
        trace = run_program(program).trace
        assert trace.memdep[3] == 2

    def test_miss_levels_recorded(self, sum_loop_program, tiny_hierarchy):
        result = run_program(sum_loop_program, tiny_hierarchy)
        trace = result.trace
        miss_indices = trace.miss_indices(int(MemoryLevel.MEM))
        assert len(miss_indices) == result.l2_misses
        assert result.l2_misses > 0

    def test_counts_match_with_and_without_trace(
        self, sum_loop_program, tiny_hierarchy
    ):
        with_trace = run_program(sum_loop_program, tiny_hierarchy)
        without = run_program(
            sum_loop_program, tiny_hierarchy, collect_trace=False
        )
        assert with_trace.instructions == without.instructions
        assert with_trace.loads == without.loads
        assert with_trace.l2_misses == without.l2_misses
        assert without.trace is None

    def test_branch_taken_flags(self):
        program = assemble(
            """
            addi r1, r0, 1
            beq  r1, r0, skip    # not taken
            bne  r1, r0, skip    # taken
            addi r2, r0, 1
        skip:
            halt
            """
        )
        trace = run_program(program).trace
        assert not trace.taken[1]
        assert trace.taken[2]

    def test_live_in_deps_are_negative(self):
        program = assemble("add r1, r2, r3\nhalt")
        trace = run_program(program).trace
        assert trace.dep1[0] == -1
        assert trace.dep2[0] == -1

    def test_static_counts(self, sum_loop_program):
        import numpy as np

        result = run_program(sum_loop_program)
        counts = np.bincount(result.trace.pc, minlength=len(sum_loop_program))
        # The loop body executes 100 times.
        assert counts[6] == 100  # the load
        assert counts[3] == 101  # the bge (100 + exit check)


class TestCodec:
    def test_round_trip(self, sum_loop_program, tiny_hierarchy):
        import numpy as np

        result = run_program(sum_loop_program, tiny_hierarchy)
        rebuilt = FunctionalResult.from_dict(result.to_dict())
        for name in (
            "instructions",
            "traced_instructions",
            "halted",
            "loads",
            "stores",
            "branches",
            "l1_misses",
            "l2_misses",
            "registers",
            "load_level_counts",
        ):
            assert getattr(rebuilt, name) == getattr(result, name), name
        assert rebuilt.memory.snapshot() == result.memory.snapshot()
        assert len(rebuilt.trace) == len(result.trace)
        for field in ("pc", "addr", "level", "dep1", "dep2", "memdep", "taken"):
            assert np.array_equal(
                getattr(rebuilt.trace, field)[: len(rebuilt.trace)],
                getattr(result.trace, field)[: len(result.trace)],
            ), field

    def test_dict_is_json_compatible(self, sum_loop_program, tiny_hierarchy):
        import json

        result = run_program(sum_loop_program, tiny_hierarchy)
        rebuilt = FunctionalResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.instructions == result.instructions
        assert rebuilt.trace.pc[0] == result.trace.pc[0]

    def test_traceless_round_trip(self, sum_loop_program, tiny_hierarchy):
        result = run_program(
            sum_loop_program, tiny_hierarchy, collect_trace=False
        )
        rebuilt = FunctionalResult.from_dict(result.to_dict())
        assert rebuilt.trace is None
        assert rebuilt.l2_misses == result.l2_misses
