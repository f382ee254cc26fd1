"""Tests for p-thread bodies and linear-scan dataflow analysis."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pthreads.body import PThreadBody, analyze_dataflow


def addi(rd, rs1, imm):
    return Instruction(Opcode.ADDI, rd=rd, rs1=rs1, imm=imm)


def lw(rd, rs1, imm=0):
    return Instruction(Opcode.LW, rd=rd, rs1=rs1, imm=imm)


def sw(rs2, rs1, imm=0):
    return Instruction(Opcode.SW, rs2=rs2, rs1=rs1, imm=imm)


class TestBodyConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PThreadBody([])

    def test_control_flow_rejected(self):
        # A branch is legal only in terminal position (branch
        # pre-execution); jumps and halts are never legal.
        with pytest.raises(ValueError, match="control-less"):
            PThreadBody(
                [
                    Instruction(Opcode.BEQ, rs1=1, rs2=2, target=0),
                    Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1),
                ]
            )
        with pytest.raises(ValueError):
            PThreadBody([Instruction(Opcode.J, target=0)])
        with pytest.raises(ValueError):
            PThreadBody([Instruction(Opcode.HALT)])
        # Terminal branch allowed.
        assert PThreadBody(
            [Instruction(Opcode.BEQ, rs1=1, rs2=2, target=0)]
        ).targets_branch

    def test_size(self):
        body = PThreadBody([addi(1, 2, 3), lw(4, 1)])
        assert body.size == 2 and len(body) == 2

    def test_equality_and_hash(self):
        a = PThreadBody([addi(1, 2, 3)])
        b = PThreadBody([addi(1, 2, 3)])
        assert a == b and hash(a) == hash(b)
        assert a != PThreadBody([addi(1, 2, 4)])


class TestDataflow:
    def test_live_ins_read_before_write(self):
        body = PThreadBody([addi(1, 2, 0), addi(2, 1, 0), addi(3, 2, 0)])
        assert body.live_ins == (2,)

    def test_r0_never_live_in(self):
        body = PThreadBody([addi(1, 0, 5)])
        assert body.live_ins == ()

    def test_reg_deps_most_recent_definition(self):
        body = PThreadBody([addi(1, 2, 0), addi(1, 1, 1), lw(3, 1)])
        assert body.dataflow.reg_deps == ((), (0,), (1,))

    def test_store_load_matching_same_base_and_offset(self):
        body = PThreadBody([addi(1, 2, 0), sw(3, 1, 8), lw(4, 1, 8)])
        assert body.dataflow.mem_deps[2] == 1

    def test_store_load_different_offset_no_match(self):
        body = PThreadBody([addi(1, 2, 0), sw(3, 1, 8), lw(4, 1, 12)])
        assert body.dataflow.mem_deps[2] is None

    def test_store_load_base_redefined_no_match(self):
        body = PThreadBody(
            [addi(1, 2, 0), sw(3, 1, 8), addi(1, 1, 4), lw(4, 1, 8)]
        )
        assert body.dataflow.mem_deps[3] is None

    def test_livein_base_matching(self):
        body = PThreadBody([sw(3, 9, 0), lw(4, 9, 0)])
        assert body.dataflow.mem_deps[1] == 0

    def test_producers_combines_reg_and_mem(self):
        body = PThreadBody([addi(1, 2, 0), sw(3, 1, 8), lw(4, 1, 8)])
        assert body.dataflow.producers(2) == (0, 1)

    def test_problem_load_positions(self):
        body = PThreadBody([sw(3, 9, 0), lw(4, 9, 0), lw(5, 4, 0)])
        # Position 1 is forwarded from the store; position 2 reads memory.
        assert body.loads() == [1, 2]
        assert body.dataflow.mem_deps[1] == 0
        assert body.dataflow.mem_deps[2] is None

    def test_render_includes_origin_pcs(self):
        body = PThreadBody([addi(1, 2, 3).with_pc(17)])
        assert "#0017" in body.render()


class TestAnalyzeDataflowFunction:
    def test_defs_recorded(self):
        flow = analyze_dataflow([addi(1, 2, 0), sw(1, 2, 0)])
        assert flow.defs == (1, None)

    def test_duplicate_sources_deduped(self):
        flow = analyze_dataflow(
            [addi(1, 2, 0), Instruction(Opcode.ADD, rd=3, rs1=1, rs2=1)]
        )
        assert flow.reg_deps[1] == (0,)
