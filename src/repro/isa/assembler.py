"""Two-pass textual assembler for the repro RISC ISA.

The assembler accepts the syntax used throughout the paper's figures::

    # comments start with '#' or ';'
    loop:
        lw   t0, 0(a0)          # load
        addi a0, a0, 16
        bne  t0, zero, loop
        halt

Labels end with ``:`` and may share a line with an instruction.  Both
``r<N>`` names and ABI aliases are accepted for registers.  Immediates
may be decimal or hex (``0x...``) and may be negative.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, MNEMONICS, Opcode
from repro.isa.program import DataImage, Program, ProgramError
from repro.isa.registers import parse_register


class AssemblerError(ProgramError):
    """Raised on syntax errors, with source line/column information."""

    def __init__(
        self,
        message: str,
        line_no: int,
        line: str,
        column: Optional[int] = None,
    ) -> None:
        where = (
            f"line {line_no}" if column is None else f"line {line_no}:{column}"
        )
        super().__init__(f"{where}: {message}: {line.strip()!r}")
        self.line_no = line_no
        self.line = line
        self.column = column


class OperandError(ValueError):
    """A bad operand, with its 1-based column in the source line.

    Raised by the operand parsers so :func:`assemble` (and the linter)
    can report *where* in the line the operand sits, not just which
    line failed.
    """

    def __init__(self, message: str, column: Optional[int] = None) -> None:
        super().__init__(message)
        self.column = column


_LABEL_RE = re.compile(r"^\s*([A-Za-z_][\w.$]*)\s*:\s*(.*)$")
_MEM_OPERAND_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))\(\s*(\w+)\s*\)$")


def _parse_imm(text: str, column: Optional[int] = None) -> int:
    text = text.strip()
    try:
        return int(text, 0)
    except ValueError:
        raise OperandError(
            f"invalid immediate: {text!r}", column=column
        ) from None


#: One operand: its text plus its 1-based column in the source line.
Operand = Tuple[str, Optional[int]]


def _split_operands(rest: str, offset: int = 0) -> List[Operand]:
    """Split a comma-separated operand list, tracking source columns.

    ``offset`` is the 0-based position of ``rest`` within the original
    source line; the returned columns are 1-based within that line.
    """
    if not rest.strip():
        return []
    operands: List[Operand] = []
    cursor = 0
    for part in rest.split(","):
        stripped = part.strip()
        leading = len(part) - len(part.lstrip())
        operands.append((stripped, offset + cursor + leading + 1))
        cursor += len(part) + 1  # consumed text plus the comma
    return operands


def _strip_comment(line: str) -> str:
    for marker in ("#", ";"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line


def parse_line(line: str) -> Tuple[Optional[str], Optional[Instruction]]:
    """Parse one source line into ``(label, instruction)``.

    Either element may be ``None``.  Raises ``ValueError`` — usually
    the positioned :class:`OperandError` subclass — on bad syntax
    (callers wrap it with line numbers).
    """
    line = _strip_comment(line)
    label: Optional[str] = None
    offset = 0  # 0-based position of the instruction text in `line`
    match = _LABEL_RE.match(line)
    if match:
        label, offset, line = match.group(1), match.start(2), match.group(2)
    offset += len(line) - len(line.lstrip())
    line = line.strip()
    if not line:
        return label, None
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    if len(parts) > 1:
        rest = parts[1]
        rest_offset = offset + line.find(rest, len(parts[0]))
    else:
        rest, rest_offset = "", offset
    if mnemonic not in MNEMONICS:
        raise OperandError(
            f"unknown mnemonic {mnemonic!r}", column=offset + 1
        )
    op = MNEMONICS[mnemonic]
    operands = _split_operands(rest, rest_offset)
    return label, _build_instruction(op, operands)


def _require(count: int, operands: List[Operand], op: Opcode) -> None:
    if len(operands) != count:
        # Point at the first superfluous operand when there is one;
        # a missing operand is a line-level complaint.
        column = operands[count][1] if len(operands) > count else None
        raise OperandError(
            f"{op.value} expects {count} operand(s), got {len(operands)}",
            column=column,
        )


def _reg(operand: Operand) -> int:
    text, column = operand
    try:
        return parse_register(text)
    except ValueError as exc:
        raise OperandError(str(exc), column=column) from None


def _imm(operand: Operand) -> int:
    return _parse_imm(operand[0], operand[1])


def _mem_operand(operand: Operand) -> Tuple[int, int]:
    """Parse ``imm(base)`` into ``(imm, base_register)``."""
    text, column = operand
    match = _MEM_OPERAND_RE.match(text.strip())
    if not match:
        raise OperandError(
            f"invalid memory operand: {text!r}", column=column
        )
    try:
        return _parse_imm(match.group(1)), parse_register(match.group(2))
    except ValueError as exc:
        raise OperandError(str(exc), column=column) from None


def _build_instruction(op: Opcode, operands: List[Operand]) -> Instruction:
    fmt = op.info.fmt
    if fmt is Format.R:
        _require(3, operands, op)
        return Instruction(
            op,
            rd=_reg(operands[0]),
            rs1=_reg(operands[1]),
            rs2=_reg(operands[2]),
        )
    if fmt is Format.I:
        if op is Opcode.MOV:
            _require(2, operands, op)
            return Instruction(
                op,
                rd=_reg(operands[0]),
                rs1=_reg(operands[1]),
            )
        if op is Opcode.LUI:
            _require(2, operands, op)
            return Instruction(
                op,
                rd=_reg(operands[0]),
                rs1=0,
                imm=_imm(operands[1]),
            )
        _require(3, operands, op)
        return Instruction(
            op,
            rd=_reg(operands[0]),
            rs1=_reg(operands[1]),
            imm=_imm(operands[2]),
        )
    if fmt is Format.LOAD:
        _require(2, operands, op)
        imm, base = _mem_operand(operands[1])
        return Instruction(op, rd=_reg(operands[0]), rs1=base, imm=imm)
    if fmt is Format.STORE:
        _require(2, operands, op)
        imm, base = _mem_operand(operands[1])
        return Instruction(op, rs2=_reg(operands[0]), rs1=base, imm=imm)
    if fmt is Format.BRANCH:
        _require(3, operands, op)
        return Instruction(
            op,
            rs1=_reg(operands[0]),
            rs2=_reg(operands[1]),
            target=operands[2][0],
        )
    if fmt is Format.JUMP:
        _require(1, operands, op)
        return Instruction(op, target=operands[0][0])
    if fmt is Format.JAL:
        _require(2, operands, op)
        return Instruction(op, rd=_reg(operands[0]), target=operands[1][0])
    if fmt is Format.JR:
        _require(1, operands, op)
        return Instruction(op, rs1=_reg(operands[0]))
    _require(0, operands, op)
    return Instruction(op)


def assemble(
    source: str,
    data: Optional[DataImage] = None,
    name: str = "program",
) -> Program:
    """Assemble ``source`` text into a :class:`Program`.

    Args:
        source: assembly text.
        data: optional initial data image to attach.
        name: program name for reporting.

    Raises:
        AssemblerError: on any syntax or label error, annotated with the
            offending source line.
    """
    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        try:
            label, inst = parse_line(line)
        except ValueError as exc:
            raise AssemblerError(
                str(exc),
                line_no,
                line,
                column=getattr(exc, "column", None),
            ) from None
        if label is not None:
            if label in labels:
                raise AssemblerError(f"duplicate label {label!r}", line_no, line)
            labels[label] = len(instructions)
        if inst is not None:
            instructions.append(inst)
    for label, index in labels.items():
        if index >= len(instructions):
            # A trailing label with no instruction after it: point it at
            # the final instruction so jumps to an "end" label work.
            labels[label] = len(instructions) - 1
    return Program(instructions, labels=labels, data=data, name=name)
