"""P-thread bodies: straight-line instruction sequences with dataflow.

A p-thread body is control-less straight-line code (the paper's
sequencing model), so its dataflow can be recovered by a single linear
scan: each instruction's register producers are the most recent earlier
definitions, values read before any definition are **seed live-ins**
(copied from the main thread at launch), and a load's value producer is
the most recent earlier store to a statically identical address
(same base definition, same displacement).

Bodies may use *virtual* register indices at and above
:data:`VIRTUAL_REG_BASE`; the merger introduces these when duplicating
a shared suffix.  They never collide with architectural state because
p-threads execute in their own renamed context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction
from repro.isa.registers import NUM_REGS

#: First register index reserved for merger-introduced virtual registers.
VIRTUAL_REG_BASE = NUM_REGS


@dataclass(frozen=True)
class BodyDataflow:
    """Dataflow facts of a body, produced by :func:`analyze_dataflow`.

    Attributes:
        reg_deps: per position, positions of register producers.
        mem_deps: per position, position of the forwarding store for a
            load (``None`` when the load reads program memory).
        live_ins: register indices read before any body definition,
            i.e. the seed values the launch mechanism must copy.
        defs: per position, the register defined (``None`` for stores,
            branches — though bodies should not contain branches).
    """

    reg_deps: Tuple[Tuple[int, ...], ...]
    mem_deps: Tuple[Optional[int], ...]
    live_ins: Tuple[int, ...]
    defs: Tuple[Optional[int], ...]

    def producers(self, position: int) -> Tuple[int, ...]:
        """All producers (register and memory) of ``position``."""
        deps = self.reg_deps[position]
        mem = self.mem_deps[position]
        if mem is None:
            return deps
        return tuple(sorted(set(deps) | {mem}))


def analyze_dataflow(instructions: Sequence[Instruction]) -> BodyDataflow:
    """Linear-scan dataflow analysis of a straight-line body.

    Each instruction's opcode facts are read once (``inst.op.info``);
    the operand roles follow from them.
    """
    last_def: Dict[int, int] = {}
    live_ins: List[int] = []
    seen_live_ins = set()
    reg_deps: List[Tuple[int, ...]] = []
    mem_deps: List[Optional[int]] = []
    defs: List[Optional[int]] = []
    # (base_key, offset) -> store position.  A base key is the base
    # register's producing position, or the register itself when it is
    # a live-in.
    stores: Dict[Tuple, int] = {}

    for position, inst in enumerate(instructions):
        info = inst.op.info
        rs1 = inst.rs1
        deps = set()
        for src in (rs1, inst.rs2)[: info.num_sources]:
            if src == 0:
                continue  # r0 reads are constant zero
            if src in last_def:
                deps.add(last_def[src])
            elif src not in seen_live_ins:
                seen_live_ins.add(src)
                live_ins.append(src)
        reg_deps.append(tuple(sorted(deps)))

        mem_dep: Optional[int] = None
        if info.is_mem:
            if rs1 in last_def:
                key = (("def", last_def[rs1]), inst.imm)
            else:
                key = (("livein", rs1), inst.imm)
            if info.is_load:
                mem_dep = stores.get(key)
            else:
                stores[key] = position
        mem_deps.append(mem_dep)

        dest = inst.rd if info.writes_register else None
        if dest is not None and dest != 0:
            last_def[dest] = position
            defs.append(dest)
        else:
            defs.append(None)

    return BodyDataflow(
        reg_deps=tuple(reg_deps),
        mem_deps=tuple(mem_deps),
        live_ins=tuple(live_ins),
        defs=tuple(defs),
    )


class PThreadBody:
    """An immutable p-thread body with cached dataflow.

    Args:
        instructions: straight-line instructions, oldest first.  The
            final instruction is conventionally the targeted problem
            load (after merging there may be several problem loads in
            the body).  For *branch pre-execution* (the paper's
            footnote 1 scenario) the final instruction may instead be
            the targeted conditional branch: the p-thread computes its
            outcome early rather than prefetching a line.

    Raises:
        ValueError: if the body is empty or contains control flow
            anywhere but a terminal conditional branch — p-thread
            *sequencing* is control-less by the paper's model (a
            terminal branch is never followed, only evaluated).
    """

    def __init__(self, instructions: Sequence[Instruction]) -> None:
        instructions = list(instructions)
        if not instructions:
            raise ValueError("p-thread body cannot be empty")
        for position, inst in enumerate(instructions):
            terminal_branch = (
                inst.is_branch and position == len(instructions) - 1
            )
            if (inst.is_control or inst.is_halt) and not terminal_branch:
                raise ValueError(
                    f"p-thread bodies are control-less; got {inst}"
                )
        self.instructions: List[Instruction] = instructions
        self.dataflow: BodyDataflow = analyze_dataflow(instructions)

    @property
    def size(self) -> int:
        """Number of instructions (the paper's ``SIZEpt``)."""
        return len(self.instructions)

    @property
    def live_ins(self) -> Tuple[int, ...]:
        """Seed registers the launch must copy from the main thread."""
        return self.dataflow.live_ins

    @property
    def targets_branch(self) -> bool:
        """True for a branch-pre-execution body (terminal branch)."""
        return self.instructions[-1].is_branch

    def loads(self) -> List[int]:
        """Positions of load instructions."""
        return [i for i, inst in enumerate(self.instructions) if inst.is_load]

    def render(self) -> str:
        """Multi-line assembly rendering."""
        lines = []
        for position, inst in enumerate(self.instructions):
            origin = f"  ; from #{inst.pc:04d}" if inst.pc >= 0 else ""
            lines.append(f"  [{position}] {inst}{origin}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PThreadBody):
            return NotImplemented
        return self.instructions == other.instructions

    def __hash__(self) -> int:
        return hash(tuple(self.instructions))
