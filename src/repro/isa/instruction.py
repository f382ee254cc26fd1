"""Instruction representation for the repro RISC ISA.

A static :class:`Instruction` is an immutable record: opcode, operands,
and (once a :class:`~repro.isa.program.Program` has laid the code out) a
program counter.  Dataflow queries (``sources`` / ``dest``) are the
interface the slicer and both simulators share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

from repro.isa.opcodes import Format, Opcode, OpInfo
from repro.isa.registers import register_name

#: A branch/jump target: a label before linking, a PC after.
Target = Union[str, int]


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Attributes:
        op: the opcode.
        rd: destination register index, or ``None``.
        rs1: first source register (base register for loads/stores).
        rs2: second source register (stored value for stores).
        imm: immediate operand (memory displacement for loads/stores).
        target: control-flow target (label name or resolved PC).
        pc: program counter, assigned by :class:`Program`; -1 if unplaced.
    """

    op: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[Target] = None
    pc: int = field(default=-1, compare=False)

    @property
    def info(self) -> OpInfo:
        return self.op.info

    @property
    def is_load(self) -> bool:
        return self.op.info.is_load

    @property
    def is_store(self) -> bool:
        return self.op.info.is_store

    @property
    def is_mem(self) -> bool:
        return self.op.info.is_mem

    @property
    def is_branch(self) -> bool:
        return self.op.info.is_branch

    @property
    def is_jump(self) -> bool:
        return self.op.info.is_jump

    @property
    def is_control(self) -> bool:
        return self.op.info.is_control

    @property
    def is_halt(self) -> bool:
        return self.op is Opcode.HALT

    def sources(self) -> Tuple[int, ...]:
        """Register indices this instruction reads (in operand order)."""
        num_sources = self.op.info.num_sources
        if num_sources == 2:
            return (self.rs1, self.rs2)  # type: ignore[return-value]
        if num_sources == 1:
            return (self.rs1,)  # type: ignore[return-value]
        return ()

    def dest(self) -> Optional[int]:
        """Register index this instruction writes, or ``None``."""
        if self.op.info.writes_register:
            return self.rd
        return None

    def with_pc(self, pc: int) -> "Instruction":
        """Return a copy of this instruction placed at ``pc``."""
        return replace(self, pc=pc)

    def with_target(self, target: Target) -> "Instruction":
        """Return a copy with the control-flow target replaced."""
        return replace(self, target=target)

    def renamed(
        self,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
    ) -> "Instruction":
        """Return a copy with some register operands substituted.

        Used by the p-thread merger when it must duplicate a shared
        suffix under fresh register names.  ``None`` keeps the original
        operand.
        """
        return replace(
            self,
            rd=self.rd if rd is None else rd,
            rs1=self.rs1 if rs1 is None else rs1,
            rs2=self.rs2 if rs2 is None else rs2,
        )

    def __str__(self) -> str:
        return format_instruction(self)


def format_instruction(inst: Instruction, *, abi: bool = False) -> str:
    """Render ``inst`` in assembly syntax."""

    def reg(idx: Optional[int]) -> str:
        return "?" if idx is None else register_name(idx, abi=abi)

    fmt = inst.info.fmt
    mnem = inst.op.value
    if fmt is Format.R:
        return f"{mnem} {reg(inst.rd)}, {reg(inst.rs1)}, {reg(inst.rs2)}"
    if fmt is Format.I:
        # mov and lui have dedicated two-operand assembly forms.
        if inst.op is Opcode.MOV:
            return f"{mnem} {reg(inst.rd)}, {reg(inst.rs1)}"
        if inst.op is Opcode.LUI:
            return f"{mnem} {reg(inst.rd)}, {inst.imm}"
        return f"{mnem} {reg(inst.rd)}, {reg(inst.rs1)}, {inst.imm}"
    if fmt is Format.LOAD:
        return f"{mnem} {reg(inst.rd)}, {inst.imm}({reg(inst.rs1)})"
    if fmt is Format.STORE:
        return f"{mnem} {reg(inst.rs2)}, {inst.imm}({reg(inst.rs1)})"
    if fmt is Format.BRANCH:
        return f"{mnem} {reg(inst.rs1)}, {reg(inst.rs2)}, {inst.target}"
    if fmt is Format.JUMP:
        return f"{mnem} {inst.target}"
    if fmt is Format.JAL:
        return f"{mnem} {reg(inst.rd)}, {inst.target}"
    if fmt is Format.JR:
        return f"{mnem} {reg(inst.rs1)}"
    return mnem
