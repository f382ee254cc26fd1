"""Property-based tests: the optimizer never changes body semantics.

Random straight-line bodies (ALU chains, loads, stores, moves) are
generated, optimized, and executed against random seeds and memory via
the reference interpreter; the target load's address and value must be
identical before and after optimization.
"""

from __future__ import annotations

from typing import List

from hypothesis import example, given, settings, strategies as st

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pthreads.body import PThreadBody
from repro.pthreads.interp import execute_body
from repro.pthreads.optimizer import optimize_body

REGS = list(range(1, 12))

_alu_ops = st.sampled_from(
    [Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR]
)
_imm_ops = st.sampled_from([Opcode.ADDI, Opcode.XORI, Opcode.ORI, Opcode.SLLI])


@st.composite
def body_instructions(draw) -> List[Instruction]:
    """A random straight-line body ending in a load."""
    n = draw(st.integers(min_value=0, max_value=14))
    instructions: List[Instruction] = []
    for _ in range(n):
        choice = draw(st.integers(0, 4))
        rd = draw(st.sampled_from(REGS))
        rs1 = draw(st.sampled_from(REGS))
        if choice == 0:
            rs2 = draw(st.sampled_from(REGS))
            op = draw(_alu_ops)
            instructions.append(Instruction(op, rd=rd, rs1=rs1, rs2=rs2))
        elif choice == 1:
            op = draw(_imm_ops)
            imm = draw(st.integers(-64, 64))
            if op is Opcode.SLLI:
                imm = draw(st.integers(0, 5))
            instructions.append(Instruction(op, rd=rd, rs1=rs1, imm=imm))
        elif choice == 2:
            instructions.append(Instruction(Opcode.MOV, rd=rd, rs1=rs1))
        elif choice == 3:
            offset = draw(st.sampled_from([0, 4, 8]))
            instructions.append(
                Instruction(Opcode.SW, rs2=rd, rs1=rs1, imm=offset)
            )
        else:
            offset = draw(st.sampled_from([0, 4, 8]))
            instructions.append(
                Instruction(Opcode.LW, rd=rd, rs1=rs1, imm=offset)
            )
    base = draw(st.sampled_from(REGS))
    instructions.append(Instruction(Opcode.LW, rd=1, rs1=base, imm=0))
    return instructions


@st.composite
def seeds(draw):
    return {
        reg: draw(st.integers(min_value=0, max_value=1 << 20)) * 4
        for reg in REGS
    }


def reference_memory(addr: int) -> int:
    # Deterministic pseudo-contents; word-aligned addresses only matter.
    return (addr * 2654435761) % (1 << 31)


@given(instructions=body_instructions(), seed_values=seeds())
@example(
    # r2 == r3: the second store overwrites what the load reads.
    instructions=[
        Instruction(Opcode.SW, rs2=1, rs1=2, imm=0),
        Instruction(Opcode.ADD, rd=1, rs1=1, rs2=1),
        Instruction(Opcode.SW, rs2=1, rs1=3, imm=0),
        Instruction(Opcode.LW, rd=1, rs1=2, imm=0),
    ],
    seed_values={reg: 4 if reg == 1 else 0 for reg in REGS},
)
def test_optimizer_preserves_target_semantics(instructions, seed_values):
    body = PThreadBody(instructions)
    optimized = optimize_body(body, assume_no_alias=False)
    original_out = execute_body(body, dict(seed_values), reference_memory)
    optimized_out = execute_body(
        optimized.body, dict(seed_values), reference_memory
    )
    target = optimized.targets[-1]
    assert optimized_out.values[target] == original_out.values[-1]
    # Store-load pair elimination may legally turn a (dynamically
    # forwarded) target load into a register move; when the optimized
    # target is still a load, its address must be unchanged.
    if optimized.body.instructions[target].is_load:
        assert optimized_out.addresses[target] == original_out.addresses[-1]


@given(instructions=body_instructions())
def test_optimizer_never_grows_body(instructions):
    body = PThreadBody(instructions)
    optimized = optimize_body(body)
    assert optimized.body.size <= body.size
    assert optimized.report.optimized_size == optimized.body.size


@given(instructions=body_instructions())
@settings(max_examples=60)
def test_optimizer_idempotent(instructions):
    body = PThreadBody(instructions)
    once = optimize_body(body)
    twice = optimize_body(once.body, targets=once.targets)
    assert twice.body.size == once.body.size
