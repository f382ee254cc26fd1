"""ISA layer: opcodes, instructions, programs, and the assembler."""

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instruction import Instruction, format_instruction
from repro.isa.opcodes import Format, MNEMONICS, Opcode, OpInfo, WORD_SIZE
from repro.isa.program import DataImage, Program, ProgramError
from repro.isa.registers import (
    ALIASES,
    NUM_REGS,
    ZERO,
    parse_register,
    register_name,
)

__all__ = [
    "ALIASES",
    "AssemblerError",
    "DataImage",
    "Format",
    "Instruction",
    "MNEMONICS",
    "NUM_REGS",
    "OpInfo",
    "Opcode",
    "Program",
    "ProgramError",
    "WORD_SIZE",
    "ZERO",
    "assemble",
    "format_instruction",
    "parse_register",
    "register_name",
]
