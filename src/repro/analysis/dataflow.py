"""Static dataflow analysis over the toy ISA.

Two pieces:

* :class:`ControlFlowGraph` — an instruction-granular CFG over any
  instruction sequence (a full :class:`~repro.isa.program.Program` with
  branches, or a straight-line p-thread body, which degenerates to a
  chain).  Provides reachability and blocked-path queries.
* :func:`constant_registers` — constant propagation, a worklist
  fixpoint over the CFG, which the program linter uses to resolve
  statically-known load/store addresses against the data image.

The p-thread verifier uses only the CFG; a body's register and memory
dependences come from the linear scan in
:func:`repro.pthreads.body.analyze_dataflow`, the paper's observation
that control-less p-threads replace "traditional control-flow and
iterative data-flow analyses ... by a simple linear scan".
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS


class ControlFlowGraph:
    """Instruction-granular CFG with successor/predecessor edges.

    Args:
        instructions: the instruction sequence (``pc`` = index).
        labels: label name -> instruction index; used as the
            conservative target set for register-indirect jumps (``jr``
            can reach any labelled instruction).
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        labels: Optional[Dict[str, int]] = None,
    ) -> None:
        self.instructions = list(instructions)
        n = len(self.instructions)
        label_targets = sorted(set((labels or {}).values()))
        succs: List[Tuple[int, ...]] = []
        #: Indices whose fall-through would leave the program entirely
        #: (no halt, jump, or in-range successor) — a linter condition.
        self.falls_off_end: FrozenSet[int] = frozenset()
        off_end = set()
        for index, inst in enumerate(self.instructions):
            out: List[int] = []
            if inst.is_halt:
                pass
            elif inst.op is Opcode.JR:
                out.extend(t for t in label_targets if 0 <= t < n)
            elif inst.is_jump:
                if inst.target is not None:
                    out.append(int(inst.target))
                if inst.op is Opcode.JAL and index + 1 < n:
                    # The link successor models the eventual return.
                    out.append(index + 1)
            elif inst.is_branch:
                if inst.target is not None:
                    out.append(int(inst.target))
                if index + 1 < n:
                    out.append(index + 1)
                else:
                    off_end.add(index)
            else:
                if index + 1 < n:
                    out.append(index + 1)
                else:
                    off_end.add(index)
            succs.append(tuple(dict.fromkeys(t for t in out if 0 <= t < n)))
        self.succs = succs
        self.falls_off_end = frozenset(off_end)
        preds: List[List[int]] = [[] for _ in range(n)]
        for index, out in enumerate(succs):
            for target in out:
                preds[target].append(index)
        self.preds: List[Tuple[int, ...]] = [tuple(p) for p in preds]

    @classmethod
    def from_program(cls, program: Program) -> "ControlFlowGraph":
        return cls(program.instructions, labels=program.labels)

    def __len__(self) -> int:
        return len(self.instructions)

    def reachable(self, start: int = 0) -> FrozenSet[int]:
        """Instruction indices reachable from ``start``."""
        seen = set()
        work = [start]
        while work:
            index = work.pop()
            if index in seen:
                continue
            seen.add(index)
            work.extend(s for s in self.succs[index] if s not in seen)
        return frozenset(seen)

    def reaches(
        self, src: int, dst: int, blocked: Iterable[int] = ()
    ) -> bool:
        """True if ``dst`` is reachable from ``src`` avoiding ``blocked``.

        ``src`` itself is never blocked; a path of length zero (``src ==
        dst``) counts.
        """
        blocked_set = frozenset(blocked)
        seen = set()
        work = [src]
        while work:
            index = work.pop()
            if index == dst:
                return True
            if index in seen or (index in blocked_set and index != src):
                continue
            seen.add(index)
            work.extend(s for s in self.succs[index] if s not in seen)
        return False


#: Constant state: sorted ``(register, constant)`` pairs.  A register
#: absent from the state is non-constant.  The whole-state value
#: ``None`` is the optimistic "unreached" top.
Consts = Optional[Tuple[Tuple[int, int], ...]]


def _transfer(inst: Instruction, value: Consts) -> Consts:
    """The state after ``inst``: loads and jump-and-link results are
    non-constant."""
    if value is None:
        return None
    dest = inst.dest()
    if dest is None or dest == 0:
        return value
    state = dict(value)
    info = inst.info
    result: Optional[int] = None
    if info.alu is not None:
        a = 0 if inst.rs1 in (None, 0) else state.get(inst.rs1)
        if inst.rs2 is not None:
            b: Optional[int] = 0 if inst.rs2 == 0 else state.get(inst.rs2)
        else:
            b = inst.imm
        if a is not None and b is not None:
            result = info.alu(a, b)
    if result is None:
        state.pop(dest, None)
    else:
        state[dest] = result
    return tuple(sorted(state.items()))


def _meet(a: Consts, b: Consts) -> Consts:
    """The constants two states agree on; ``None`` is the identity."""
    if a is None:
        return b
    if b is None:
        return a
    other = dict(b)
    return tuple((reg, const) for reg, const in a if other.get(reg) == const)


def constant_registers(
    cfg: ControlFlowGraph,
) -> List[Optional[Dict[int, int]]]:
    """Per instruction: known-constant registers before it executes.

    A forward worklist fixpoint with its entry at index 0, where every
    register is known: the register file starts zeroed.  Straight-line
    chains converge in one pass in program order; cyclic graphs iterate.
    ``None`` marks instructions the analysis never reached.
    """
    n = len(cfg)
    entry: Consts = tuple((reg, 0) for reg in range(NUM_REGS))
    in_values: List[Consts] = [None] * n
    out_values: List[Consts] = [None] * n
    # Every node is seeded (not just the entry): a node whose first
    # computed state happens to equal the optimistic top would otherwise
    # never enqueue its successors.
    work = deque(range(n))
    pending = set(work)
    visited = [False] * n
    while work:
        index = work.popleft()
        pending.discard(index)
        value: Consts = None
        for other in cfg.preds[index]:
            value = _meet(value, out_values[other])
        if index == 0:
            value = _meet(value, entry)
        in_values[index] = value
        new_out = _transfer(cfg.instructions[index], value)
        if new_out != out_values[index] or not visited[index]:
            out_values[index] = new_out
            for other in cfg.succs[index]:
                if other not in pending:
                    pending.add(other)
                    work.append(other)
        visited[index] = True
    reachable = cfg.reachable()
    return [
        None if value is None or index not in reachable else dict(value)
        for index, value in enumerate(in_values)
    ]
