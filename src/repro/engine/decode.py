"""Pre-decoded program form shared by the functional and timing engines.

Dispatching on :class:`~repro.isa.opcodes.Opcode` enums and dataclass
attribute lookups in a hot interpreter loop is slow; both simulators
instead run off :class:`DecodedProgram`, plain parallel lists of ints
and callables indexed by PC.  Decoding happens once per program.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.isa.opcodes import Format, Opcode
from repro.isa.program import Program

# Instruction kind constants (dense ints for fast dispatch).
K_ALU_R = 0
K_ALU_I = 1
K_LOAD = 2
K_STORE = 3
K_BRANCH = 4
K_JUMP = 5
K_JAL = 6
K_JR = 7
K_NOP = 8
K_HALT = 9

_FORMAT_KIND = {
    Format.R: K_ALU_R,
    Format.I: K_ALU_I,
    Format.LOAD: K_LOAD,
    Format.STORE: K_STORE,
    Format.BRANCH: K_BRANCH,
    Format.JUMP: K_JUMP,
    Format.JAL: K_JAL,
    Format.JR: K_JR,
}


class DecodedProgram:
    """Parallel-array decoded form of a :class:`Program`."""

    def __init__(self, program: Program) -> None:
        n = len(program)
        self.program = program
        self.kind: List[int] = [K_NOP] * n
        self.rd: List[int] = [0] * n
        self.rs1: List[int] = [0] * n
        self.rs2: List[int] = [0] * n
        self.imm: List[int] = [0] * n
        self.target: List[int] = [0] * n
        self.alu: List[Optional[Callable[[int, int], int]]] = [None] * n
        self.branch: List[Optional[Callable[[int, int], bool]]] = [None] * n
        self.latency: List[int] = [1] * n
        for pc, inst in enumerate(program.instructions):
            info = inst.op.info
            if inst.op is Opcode.HALT:
                self.kind[pc] = K_HALT
            elif inst.op is Opcode.NOP:
                self.kind[pc] = K_NOP
            else:
                self.kind[pc] = _FORMAT_KIND[info.fmt]
            self.rd[pc] = inst.rd if inst.rd is not None else 0
            self.rs1[pc] = inst.rs1 if inst.rs1 is not None else 0
            self.rs2[pc] = inst.rs2 if inst.rs2 is not None else 0
            self.imm[pc] = inst.imm
            self.target[pc] = (
                int(inst.target) if inst.target is not None else 0
            )
            self.alu[pc] = info.alu
            self.branch[pc] = info.branch
            self.latency[pc] = info.latency

    def __len__(self) -> int:
        return len(self.kind)
