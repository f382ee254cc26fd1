"""Property-based tests: format/parse round-trips on the ISA."""

from hypothesis import given, settings, strategies as st

from repro.isa.assembler import parse_line
from repro.isa.instruction import Instruction, format_instruction
from repro.isa.opcodes import Format, Opcode
from repro.isa.registers import NUM_REGS

registers = st.integers(min_value=0, max_value=NUM_REGS - 1)
immediates = st.integers(min_value=-(1 << 20), max_value=1 << 20)

_R_OPS = [op for op in Opcode if op.info.fmt is Format.R]
_I_OPS = [
    op
    for op in Opcode
    if op.info.fmt is Format.I and op not in (Opcode.MOV, Opcode.LUI)
]


@st.composite
def random_instruction(draw) -> Instruction:
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Instruction(
            draw(st.sampled_from(_R_OPS)),
            rd=draw(registers),
            rs1=draw(registers),
            rs2=draw(registers),
        )
    if kind == 1:
        return Instruction(
            draw(st.sampled_from(_I_OPS)),
            rd=draw(registers),
            rs1=draw(registers),
            imm=draw(immediates),
        )
    if kind == 2:
        return Instruction(
            Opcode.LW, rd=draw(registers), rs1=draw(registers),
            imm=draw(immediates),
        )
    if kind == 3:
        return Instruction(
            Opcode.SW, rs2=draw(registers), rs1=draw(registers),
            imm=draw(immediates),
        )
    return Instruction(Opcode.MOV, rd=draw(registers), rs1=draw(registers))


@given(inst=random_instruction())
@settings(max_examples=300)
def test_format_parse_round_trip(inst):
    _, parsed = parse_line(format_instruction(inst))
    assert parsed == inst


@given(inst=random_instruction())
def test_abi_format_parses_identically(inst):
    _, parsed = parse_line(format_instruction(inst, abi=True))
    assert parsed == inst
