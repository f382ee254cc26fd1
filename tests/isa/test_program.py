"""Tests for Program linking and DataImage."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import DataImage, Program, ProgramError


class TestDataImage:
    def test_store_and_load(self):
        image = DataImage()
        image.store_word(64, 42)
        assert image.load_word(64) == 42
        assert image.load_word(68) == 0

    def test_store_words_sequential(self):
        image = DataImage()
        image.store_words(100, [1, 2, 3])
        assert [image.load_word(100 + 4 * i) for i in range(3)] == [1, 2, 3]

    def test_unaligned_rejected(self):
        image = DataImage()
        with pytest.raises(ProgramError):
            image.store_word(3, 1)

    def test_regions(self):
        image = DataImage()
        region = image.add_region("table", 256, 4)
        assert list(region) == [256, 260, 264, 268]
        assert "table" in image.regions


class TestProgram:
    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            Program([])

    def test_unresolved_label_rejected(self):
        inst = Instruction(Opcode.J, target="missing")
        with pytest.raises(ProgramError, match="undefined"):
            Program([inst, Instruction(Opcode.HALT)])

    def test_out_of_range_target_rejected(self):
        inst = Instruction(Opcode.J, target=99)
        with pytest.raises(ProgramError, match="out of range"):
            Program([inst, Instruction(Opcode.HALT)])

    def test_label_resolution(self):
        instructions = [
            Instruction(Opcode.J, target="end"),
            Instruction(Opcode.NOP),
            Instruction(Opcode.HALT),
        ]
        program = Program(instructions, labels={"end": 2})
        assert program[0].target == 2

    def test_label_for_pc(self):
        program = Program(
            [Instruction(Opcode.NOP), Instruction(Opcode.HALT)],
            labels={"start": 0},
        )
        assert program.label_for_pc(0) == "start"
        assert program.label_for_pc(1) is None

    def test_len_and_index(self):
        program = Program([Instruction(Opcode.NOP), Instruction(Opcode.HALT)])
        assert len(program) == 2
        assert program[1].op is Opcode.HALT
