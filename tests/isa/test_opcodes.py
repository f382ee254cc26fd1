"""Tests for opcode metadata and ALU semantics."""

import pytest

from repro.isa.opcodes import (
    Format,
    MNEMONICS,
    OPINFO,
    Opcode,
    _to_signed,
)


class TestOpInfoTable:
    def test_every_opcode_has_info(self):
        for op in Opcode:
            assert op.info is OPINFO[op]

    def test_every_mnemonic_round_trips(self):
        for mnemonic, op in MNEMONICS.items():
            assert op.value == mnemonic

    def test_alu_ops_have_value_functions(self):
        for op, info in OPINFO.items():
            if info.fmt in (Format.R, Format.I):
                assert info.alu is not None, op

    def test_branches_have_predicates(self):
        for op, info in OPINFO.items():
            if info.fmt is Format.BRANCH:
                assert info.branch is not None, op

    def test_load_store_classification(self):
        assert Opcode.LW.info.is_load
        assert Opcode.LW.info.is_mem
        assert not Opcode.LW.info.is_store
        assert Opcode.SW.info.is_store
        assert Opcode.SW.info.is_mem
        assert not Opcode.SW.info.writes_register

    def test_control_classification(self):
        for op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            assert op.info.is_branch
            assert op.info.is_control
        for op in (Opcode.J, Opcode.JAL, Opcode.JR):
            assert op.info.is_jump
            assert op.info.is_control
        assert not Opcode.ADD.info.is_control

    def test_jal_writes_register(self):
        assert Opcode.JAL.info.writes_register
        assert not Opcode.J.info.writes_register

    def test_mul_is_multicycle(self):
        assert Opcode.MUL.info.latency == 3
        assert Opcode.ADD.info.latency == 1


class TestAluSemantics:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Opcode.ADD, 2, 3, 5),
            (Opcode.SUB, 2, 3, -1),
            (Opcode.MUL, -4, 3, -12),
            (Opcode.AND, 0b1100, 0b1010, 0b1000),
            (Opcode.OR, 0b1100, 0b1010, 0b1110),
            (Opcode.XOR, 0b1100, 0b1010, 0b0110),
            (Opcode.SLL, 1, 4, 16),
            (Opcode.SRL, 16, 2, 4),
            (Opcode.SRA, -16, 2, -4),
            (Opcode.SLT, -1, 0, 1),
            (Opcode.SLT, 1, 0, 0),
            (Opcode.SLTU, -1, 0, 0),  # -1 is huge unsigned
        ],
    )
    def test_r_format_values(self, op, a, b, expected):
        assert op.info.alu(a, b) == expected

    def test_mov_copies_first_operand(self):
        assert Opcode.MOV.info.alu(42, 999) == 42

    def test_lui_shifts_immediate(self):
        assert Opcode.LUI.info.alu(0, 5) == 5 << 16

    def test_add_wraps_to_64_bits(self):
        big = (1 << 63) - 1
        assert Opcode.ADD.info.alu(big, 1) == -(1 << 63)

    def test_srl_treats_value_as_unsigned(self):
        assert Opcode.SRL.info.alu(-1, 60) == 15

    def test_to_signed_identity_in_range(self):
        assert _to_signed(123) == 123
        assert _to_signed(-123) == -123

    def test_branch_predicates(self):
        assert Opcode.BEQ.info.branch(3, 3)
        assert not Opcode.BEQ.info.branch(3, 4)
        assert Opcode.BNE.info.branch(3, 4)
        assert Opcode.BLT.info.branch(-1, 0)
        assert Opcode.BGE.info.branch(0, 0)
        assert Opcode.BLE.info.branch(0, 0)
        assert Opcode.BGT.info.branch(1, 0)
