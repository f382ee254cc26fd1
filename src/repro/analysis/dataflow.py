"""Generic static dataflow analysis over the toy ISA.

Two layers:

* :class:`ControlFlowGraph` — an instruction-granular CFG over any
  instruction sequence (a full :class:`~repro.isa.program.Program` with
  branches, or a straight-line p-thread body, which degenerates to a
  chain).  Provides reachability, blocked-path queries, and dominators.
* :func:`solve` — a worklist fixpoint solver for any forward
  :class:`DataflowProblem`.  On a chain CFG the worklist converges in
  one linear scan, which is exactly the paper's observation that
  control-less p-threads replace "traditional control-flow and
  iterative data-flow analyses ... by a simple linear scan"; on a full
  program it is the classic iterative algorithm.

One problem instance runs on it: constant propagation, which the
program linter uses to resolve statically-known load/store addresses
against the data image.  The p-thread verifier uses only the CFG; a
body's register and memory dependences come from the linear scan in
:func:`repro.pthreads.body.analyze_dataflow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS

T = TypeVar("T")


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

    @classmethod
    def from_instructions(
        cls, instructions: Sequence[Instruction]
    ) -> "ControlFlowGraph":
        """Chain CFG for a straight-line sequence (p-thread body)."""
        return cls(instructions, labels={})

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

    def dominators(self, entry: int = 0) -> List[FrozenSet[int]]:
        """Per-instruction dominator sets (classic iterative algorithm).

        Unreachable instructions report the full set (vacuous
        domination), as is conventional.
        """
        n = len(self.instructions)
        everything = frozenset(range(n))
        dom: List[FrozenSet[int]] = [everything] * n
        dom[entry] = frozenset({entry})
        order = sorted(self.reachable(entry) - {entry})
        changed = True
        while changed:
            changed = False
            for index in order:
                pred_doms = [dom[p] for p in self.preds[index]]
                if pred_doms:
                    new = frozenset.intersection(*pred_doms) | {index}
                else:
                    new = frozenset({index})
                if new != dom[index]:
                    dom[index] = new
                    changed = True
        return dom

    def dominates(self, a: int, b: int, entry: int = 0) -> bool:
        """True if ``a`` dominates ``b`` (every entry path to b hits a)."""
        return a in self.dominators(entry)[b]


class DataflowProblem(Generic[T]):
    """One forward dataflow problem: lattice values plus transfer/meet.

    Subclasses define:

    * ``boundary()`` — the value at the entry of the graph;
    * ``initial()`` — the optimistic starting value for interior
      points (the lattice top);
    * ``transfer(index, inst, value)`` — the per-instruction transfer
      function;
    * ``meet(a, b)`` — the confluence operator.
    """

    def boundary(self) -> T:
        raise NotImplementedError

    def initial(self) -> T:
        raise NotImplementedError

    def transfer(self, index: int, inst: Instruction, value: T) -> T:
        raise NotImplementedError

    def meet(self, a: T, b: T) -> T:
        raise NotImplementedError


@dataclass
class DataflowResult(Generic[T]):
    """Fixpoint solution: a value at the entry and exit of each index.

    ``in_values[i]`` is the state before ``i`` executes and
    ``out_values[i]`` after.
    """

    in_values: List[T]
    out_values: List[T]


def solve(
    cfg: ControlFlowGraph, problem: DataflowProblem[T]
) -> DataflowResult[T]:
    """Worklist fixpoint of ``problem`` over ``cfg``, entry at index 0.

    Straight-line chains converge in a single linear pass; cyclic
    graphs iterate to a fixpoint.  Unreachable instructions keep the
    optimistic ``initial()`` value.
    """
    n = len(cfg)
    in_values: List[T] = [problem.initial() for _ in range(n)]
    out_values: List[T] = [problem.initial() for _ in range(n)]
    # Every node is seeded (not just the entry): a node whose first
    # computed value happens to equal the optimistic initial value
    # would otherwise never enqueue its successors.  Processing in
    # program order converges in one pass on straight-line code.
    work = list(range(n))
    pending = set(work)
    first_visit = [True] * n
    while work:
        index = work.pop(0)
        pending.discard(index)
        value: Optional[T] = None
        for other in cfg.preds[index]:
            contribution = out_values[other]
            value = (
                contribution
                if value is None
                else problem.meet(value, contribution)
            )
        if index == 0:
            boundary = problem.boundary()
            value = boundary if value is None else problem.meet(value, boundary)
        if value is None:
            value = problem.initial()
        in_values[index] = value
        new_out = problem.transfer(index, cfg.instructions[index], value)
        if new_out != out_values[index] or first_visit[index]:
            out_values[index] = new_out
            for other in cfg.succs[index]:
                if other not in pending:
                    pending.add(other)
                    work.append(other)
        first_visit[index] = False
    return DataflowResult(in_values=in_values, out_values=out_values)


# -- constant propagation ----------------------------------------------

#: Constant state: register -> known constant.  A register absent from
#: the mapping is non-constant.  The whole-state value ``None`` is the
#: optimistic "unreached" top.
Consts = Optional[Tuple[Tuple[int, int], ...]]


class ConstantPropagation(DataflowProblem[Consts]):
    """Registers holding statically-known constants.

    The entry state knows every register: the register file starts
    zeroed.  Loads and jump-and-link results are non-constant.
    """

    def boundary(self) -> Consts:
        return tuple((reg, 0) for reg in range(NUM_REGS))

    def initial(self) -> Consts:
        return None

    def transfer(
        self, index: int, inst: Instruction, value: Consts
    ) -> Consts:
        if value is None:
            return None
        state = dict(value)
        dest = inst.dest()
        if dest is None or dest == 0:
            return value
        info = inst.info
        result: Optional[int] = None
        if info.alu is not None:
            a = 0 if inst.rs1 in (None, 0) else state.get(inst.rs1)
            if inst.rs2 is not None:
                b: Optional[int] = (
                    0 if inst.rs2 == 0 else state.get(inst.rs2)
                )
            else:
                b = inst.imm
            if a is not None and b is not None:
                result = info.alu(a, b)
        if result is None:
            state.pop(dest, None)
        else:
            state[dest] = result
        return tuple(sorted(state.items()))

    def meet(self, a: Consts, b: Consts) -> Consts:
        if a is None:
            return b
        if b is None:
            return a
        other = dict(b)
        merged = tuple(
            (reg, const)
            for reg, const in a
            if other.get(reg) == const
        )
        return merged


def constant_registers(
    cfg: ControlFlowGraph,
) -> List[Optional[Dict[int, int]]]:
    """Per instruction: known-constant registers before it executes.

    ``None`` marks instructions the analysis never reached.
    """
    result = solve(cfg, ConstantPropagation())
    values: List[Optional[Dict[int, int]]] = []
    reachable = cfg.reachable()
    for index, value in enumerate(result.in_values):
        if value is None or index not in reachable:
            values.append(None)
        else:
            values.append(dict(value))
    return values
