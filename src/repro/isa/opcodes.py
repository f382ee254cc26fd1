"""Opcode definitions for the repro RISC ISA.

The ISA is a small load/store RISC, deliberately close in spirit to the
Alpha/MIPS-style ISAs used by SimpleScalar in the original paper: all
arithmetic is register-to-register (or register-immediate), memory is
accessed only through explicit word loads and stores, and control flow is
limited to compare-and-branch, direct jumps, and register-indirect jumps.

Everything the p-thread selection framework needs from an ISA is exposed
here declaratively: which operands an opcode reads and writes, whether it
touches memory, and whether it transfers control.  The functional
simulator and the slicer are both driven off :class:`OpInfo` so that the
two can never disagree about dataflow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional


class Format(enum.Enum):
    """Operand layout of an instruction."""

    #: ``op rd, rs1, rs2`` — three-register ALU.
    R = "R"
    #: ``op rd, rs1, imm`` — register-immediate ALU.
    I = "I"
    #: ``op rd, imm(rs1)`` — word load.
    LOAD = "LOAD"
    #: ``op rs2, imm(rs1)`` — word store (rs2 is the stored value).
    STORE = "STORE"
    #: ``op rs1, rs2, target`` — compare-and-branch.
    BRANCH = "BRANCH"
    #: ``op target`` — direct jump.
    JUMP = "JUMP"
    #: ``op rd, target`` — jump-and-link.
    JAL = "JAL"
    #: ``op rs1`` — register-indirect jump.
    JR = "JR"
    #: ``op`` — no operands (``nop``, ``halt``).
    NONE = "NONE"


class Opcode(enum.Enum):
    """All opcodes in the ISA.

    Every member carries its :class:`OpInfo` as the plain attribute
    ``info`` (attached below the table).  Per-instruction queries read
    it instead of looking the member up in :data:`OPINFO`, whose
    ``Enum.__hash__`` runs in Python on every lookup.
    """

    info: "OpInfo"

    # Register-register ALU.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLTU = "sltu"
    # Register-immediate ALU.
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    SLTI = "slti"
    LUI = "lui"
    MOV = "mov"  # pseudo-ish register move, kept explicit for the optimizer
    # Memory.
    LW = "lw"
    SW = "sw"
    # Control.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLE = "ble"
    BGT = "bgt"
    J = "j"
    JAL = "jal"
    JR = "jr"
    # Misc.
    NOP = "nop"
    HALT = "halt"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


# Word size of the ISA in bytes.  All loads and stores move one word.
WORD_SIZE = 4

# Mask used to keep register values in a 64-bit two's-complement range so
# that long-running synthetic kernels cannot grow unbounded Python ints.
_MASK64 = (1 << 64) - 1


def _to_signed(value: int) -> int:
    """Wrap ``value`` into signed 64-bit two's-complement range."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def _sra(a: int, b: int) -> int:
    return a >> (b & 63)


def _srl(a: int, b: int) -> int:
    return _to_signed((a & _MASK64) >> (b & 63))


@dataclass(frozen=True)
class OpInfo:
    """Static description of one opcode.

    Attributes:
        fmt: operand layout.
        latency: execution latency in cycles (loads add memory time).
        alu: for ALU opcodes, the value function ``f(a, b) -> result``
            where ``a`` is the rs1 value and ``b`` is the rs2 or
            immediate value.  ``None`` for non-ALU opcodes.
        branch: for branch opcodes, the taken predicate ``f(a, b)``.

    The operand-class flags below (``is_load`` through
    ``num_sources``) are derived from ``fmt`` once, at construction, so
    the slicing, dataflow and optimizer scans read them as plain
    attributes.
    """

    fmt: Format
    latency: int = 1
    alu: Optional[Callable[[int, int], int]] = None
    branch: Optional[Callable[[int, int], bool]] = None
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    is_mem: bool = field(init=False, repr=False, compare=False)
    is_branch: bool = field(init=False, repr=False, compare=False)
    is_jump: bool = field(init=False, repr=False, compare=False)
    is_control: bool = field(init=False, repr=False, compare=False)
    writes_register: bool = field(init=False, repr=False, compare=False)
    #: Register operands read, in operand order: 2 reads ``rs1, rs2``,
    #: 1 reads ``rs1``, 0 reads none.
    num_sources: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fmt = self.fmt
        is_branch = fmt is Format.BRANCH
        is_jump = fmt in (Format.JUMP, Format.JAL, Format.JR)
        if fmt in (Format.R, Format.BRANCH, Format.STORE):
            num_sources = 2
        elif fmt in (Format.I, Format.LOAD, Format.JR):
            num_sources = 1
        else:
            num_sources = 0
        derived = {
            "is_load": fmt is Format.LOAD,
            "is_store": fmt is Format.STORE,
            "is_mem": fmt in (Format.LOAD, Format.STORE),
            "is_branch": is_branch,
            "is_jump": is_jump,
            "is_control": is_branch or is_jump,
            "writes_register": fmt in (Format.R, Format.I, Format.LOAD, Format.JAL),
            "num_sources": num_sources,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


#: The table every ``Opcode.info`` is filled from; read ``op.info``.
OPINFO: Dict[Opcode, OpInfo] = {
    Opcode.ADD: OpInfo(Format.R, alu=lambda a, b: _to_signed(a + b)),
    Opcode.SUB: OpInfo(Format.R, alu=lambda a, b: _to_signed(a - b)),
    Opcode.MUL: OpInfo(Format.R, latency=3, alu=lambda a, b: _to_signed(a * b)),
    Opcode.AND: OpInfo(Format.R, alu=lambda a, b: _to_signed(a & b)),
    Opcode.OR: OpInfo(Format.R, alu=lambda a, b: _to_signed(a | b)),
    Opcode.XOR: OpInfo(Format.R, alu=lambda a, b: _to_signed(a ^ b)),
    Opcode.SLL: OpInfo(Format.R, alu=lambda a, b: _to_signed(a << (b & 63))),
    Opcode.SRL: OpInfo(Format.R, alu=_srl),
    Opcode.SRA: OpInfo(Format.R, alu=_sra),
    Opcode.SLT: OpInfo(Format.R, alu=lambda a, b: int(a < b)),
    Opcode.SLTU: OpInfo(
        Format.R, alu=lambda a, b: int((a & _MASK64) < (b & _MASK64))
    ),
    Opcode.ADDI: OpInfo(Format.I, alu=lambda a, b: _to_signed(a + b)),
    Opcode.ANDI: OpInfo(Format.I, alu=lambda a, b: _to_signed(a & b)),
    Opcode.ORI: OpInfo(Format.I, alu=lambda a, b: _to_signed(a | b)),
    Opcode.XORI: OpInfo(Format.I, alu=lambda a, b: _to_signed(a ^ b)),
    Opcode.SLLI: OpInfo(Format.I, alu=lambda a, b: _to_signed(a << (b & 63))),
    Opcode.SRLI: OpInfo(Format.I, alu=_srl),
    Opcode.SRAI: OpInfo(Format.I, alu=_sra),
    Opcode.SLTI: OpInfo(Format.I, alu=lambda a, b: int(a < b)),
    Opcode.LUI: OpInfo(Format.I, alu=lambda a, b: _to_signed(b << 16)),
    Opcode.MOV: OpInfo(Format.I, alu=lambda a, b: a),
    Opcode.LW: OpInfo(Format.LOAD, latency=1),
    Opcode.SW: OpInfo(Format.STORE, latency=1),
    Opcode.BEQ: OpInfo(Format.BRANCH, branch=lambda a, b: a == b),
    Opcode.BNE: OpInfo(Format.BRANCH, branch=lambda a, b: a != b),
    Opcode.BLT: OpInfo(Format.BRANCH, branch=lambda a, b: a < b),
    Opcode.BGE: OpInfo(Format.BRANCH, branch=lambda a, b: a >= b),
    Opcode.BLE: OpInfo(Format.BRANCH, branch=lambda a, b: a <= b),
    Opcode.BGT: OpInfo(Format.BRANCH, branch=lambda a, b: a > b),
    Opcode.J: OpInfo(Format.JUMP),
    Opcode.JAL: OpInfo(Format.JAL),
    Opcode.JR: OpInfo(Format.JR),
    Opcode.NOP: OpInfo(Format.NONE),
    Opcode.HALT: OpInfo(Format.NONE),
}

for _op, _info in OPINFO.items():
    _op.info = _info
del _op, _info

#: Opcodes by mnemonic string, used by the assembler.
MNEMONICS: Dict[str, Opcode] = {op.value: op for op in Opcode}
