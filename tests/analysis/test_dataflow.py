"""Tests for the control-flow graph and constant propagation."""

import pytest

from repro.analysis.dataflow import ControlFlowGraph, constant_registers
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_REGS


def program(source: str):
    return assemble(source, name="test")


def cfg_of(source: str) -> ControlFlowGraph:
    return ControlFlowGraph.from_program(program(source))


LOOP = """
start:
    addi a0, zero, 0
    addi a1, zero, 10
loop:
    bge  a0, a1, done
    addi a0, a0, 1
    j    loop
done:
    halt
"""


class TestControlFlowGraph:
    def test_straight_line_is_a_chain(self):
        insts = [
            Instruction(Opcode.ADDI, rd=5, rs1=5, imm=4),
            Instruction(Opcode.LW, rd=6, rs1=5, imm=0),
        ]
        cfg = ControlFlowGraph(insts, labels={})
        assert cfg.succs == [(1,), ()]
        assert cfg.preds == [(), (0,)]
        # The chain's tail falls off the end (no halt) — callers that
        # care (the program linter) check reachability themselves.
        assert cfg.falls_off_end == {1}

    def test_branch_has_two_successors(self):
        cfg = cfg_of(LOOP)
        # bge at index 2: taken -> 5 (done/halt), fallthrough -> 3.
        assert set(cfg.succs[2]) == {5, 3}

    def test_jump_has_one_successor(self):
        cfg = cfg_of(LOOP)
        assert cfg.succs[4] == (2,)

    def test_halt_has_no_successors(self):
        cfg = cfg_of(LOOP)
        assert cfg.succs[5] == ()
        assert not cfg.falls_off_end

    def test_reachable_excludes_dead_code(self):
        cfg = cfg_of(
            """
            j skip
            addi t0, zero, 1
        skip:
            halt
        """
        )
        assert cfg.reachable() == {0, 2}

    def test_reaches_respects_blocked_nodes(self):
        cfg = cfg_of(LOOP)
        assert cfg.reaches(0, 5)
        assert not cfg.reaches(0, 5, blocked={2})
        # The source itself is never blocked.
        assert cfg.reaches(2, 5, blocked={2})

    def test_zero_length_path_counts(self):
        cfg = cfg_of(LOOP)
        assert cfg.reaches(3, 3)

    def test_jr_conservatively_targets_all_labels(self):
        cfg = cfg_of(
            """
        a:
            jr ra
        b:
            halt
        """
        )
        assert set(cfg.succs[0]) == {0, 1}


class TestConstantPropagation:
    def test_entry_registers_are_zero(self):
        cfg = cfg_of(
            """
            addi t0, s0, 5
            halt
        """
        )
        consts = constant_registers(cfg)
        assert consts[1][8] == 5  # 0 + 5

    def test_load_result_is_not_constant(self):
        cfg = cfg_of(
            """
            lw   t0, 0(zero)
            addi t1, t0, 1
            halt
        """
        )
        consts = constant_registers(cfg)
        assert 8 not in consts[1]

    def test_loop_varying_value_is_not_constant(self):
        cfg = cfg_of(LOOP)
        consts = constant_registers(cfg)
        assert 4 not in consts[2]  # a0 varies around the loop
        assert consts[2][5] == 10  # a1 is loop-invariant

    def test_unreachable_code_has_no_state(self):
        cfg = cfg_of(
            """
            j skip
            addi t0, zero, 1
        skip:
            halt
        """
        )
        consts = constant_registers(cfg)
        assert consts[1] is None

    @pytest.mark.parametrize("name", ["pharmacy", "mcf"])
    def test_real_workloads_solve(self, name):
        from repro.workloads import build

        workload = build(name, "test" if name == "mcf" else "train")
        cfg = ControlFlowGraph.from_program(workload.program)
        consts = constant_registers(cfg)
        assert len(consts) == len(workload.program)
        # The entry sees the zeroed register file.
        assert consts[0] == {reg: 0 for reg in range(NUM_REGS)}
