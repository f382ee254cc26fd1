"""Tests for the two-pass assembler."""

import pytest

from repro.isa.assembler import AssemblerError, assemble, parse_line
from repro.isa.opcodes import Opcode


class TestParseLine:
    def test_comment_only(self):
        assert parse_line("  # nothing") == (None, None)
        assert parse_line("; also nothing") == (None, None)

    def test_label_only(self):
        label, inst = parse_line("loop:")
        assert label == "loop" and inst is None

    def test_label_with_instruction(self):
        label, inst = parse_line("loop: addi r1, r0, 5")
        assert label == "loop"
        assert inst.op is Opcode.ADDI and inst.imm == 5

    def test_hex_and_negative_immediates(self):
        _, inst = parse_line("addi r1, r0, 0xff")
        assert inst.imm == 255
        _, inst = parse_line("addi r1, r0, -16")
        assert inst.imm == -16

    def test_memory_operand(self):
        _, inst = parse_line("lw t0, -8(sp)")
        assert inst.rd == 8 and inst.rs1 == 2 and inst.imm == -8

    def test_mov_two_operands(self):
        _, inst = parse_line("mov t0, t1")
        assert inst.op is Opcode.MOV and inst.rd == 8 and inst.rs1 == 9

    def test_unknown_mnemonic(self):
        with pytest.raises(ValueError):
            parse_line("frobnicate r1, r2")

    def test_wrong_operand_count(self):
        with pytest.raises(ValueError):
            parse_line("add r1, r2")

    def test_bad_memory_operand(self):
        with pytest.raises(ValueError):
            parse_line("lw r1, r2")


class TestAssemble:
    def test_labels_resolve_forward_and_backward(self):
        program = assemble(
            """
            start:
                j end
                addi r1, r0, 1
            end:
                j start
                halt
            """
        )
        assert program[0].target == 2  # 'end'
        assert program[2].target == 0  # 'start'

    def test_pcs_are_sequential(self):
        program = assemble("nop\nnop\nhalt")
        assert [inst.pc for inst in program.instructions] == [0, 1, 2]

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("a:\nnop\na:\nhalt")

    def test_undefined_label_rejected(self):
        with pytest.raises(Exception, match="undefined label"):
            assemble("j nowhere\nhalt")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError, match="line 3"):
            assemble("nop\nnop\nbogus r1\nhalt")

    def test_trailing_label_points_at_last_instruction(self):
        program = assemble(
            """
                j end
                halt
            end:
            """
        )
        assert program.labels["end"] == 1

    def test_branch_all_comparisons(self):
        program = assemble(
            """
            top:
                beq r1, r2, top
                bne r1, r2, top
                blt r1, r2, top
                bge r1, r2, top
                ble r1, r2, top
                bgt r1, r2, top
                halt
            """
        )
        ops = [inst.op for inst in program.instructions[:6]]
        assert ops == [
            Opcode.BEQ,
            Opcode.BNE,
            Opcode.BLT,
            Opcode.BGE,
            Opcode.BLE,
            Opcode.BGT,
        ]

    def test_disassemble_round_trips(self):
        source = """
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """
        program = assemble(source)
        assert str(program[0]) == "addi r1, r1, 1"
        assert program.label_for_pc(0) == "loop"

    def test_reassembling_disassembly_gives_same_ops(self):
        program = assemble("addi r1, r0, 1\nslli r2, r1, 3\nhalt")
        lines = []
        for inst in program.instructions:
            lines.append(str(inst))
        again = assemble("\n".join(lines))
        assert [i.op for i in again.instructions] == [
            i.op for i in program.instructions
        ]
