"""Static verification of p-thread invariants (PT001–PT006).

The paper's selection framework is only sound if every p-thread body
is a control-less backward slice whose dataflow reproduces the problem
load's address (§2–§3).  The slicer, induction unrolling, optimizer,
and merger all transform bodies; this module machine-checks that the
invariants survive.  Each check has a stable diagnostic code:

========  ========================================================
PT001     body is straight-line / control-free (paper §2: "since
          p-threads are control-less ...").  A *terminal* conditional
          branch is legal — that is branch pre-execution (footnote 1),
          where the branch is evaluated, never followed.
PT002     every register read is defined upstream in the body or is a
          seedable live-in.  Virtual registers (merger-introduced,
          index ≥ 32) have no architectural backing, so a virtual
          live-in can never receive a seed value at launch.
PT003     slice soundness: the chain of address computations reaches
          the target problem load — every target PC appears in the
          body, the body's final instruction is a target, and every
          instruction feeds some target through the def-use/memory
          chains (§3.1's candidate chain construction).
PT004     a store in a body must be consumed by a later body load
          (store-load forwarding through the speculative store
          buffer); speculative stores never commit, so an unconsumed
          store is wasted overhead.
PT005     body length respects the ``SIZEpt`` machine constraint
          (§4.1: selection applies the length limit after
          optimization).
PT006     the trigger PC exists in the source program and "dominates"
          the root: the root must be reachable from the trigger
          (error otherwise), and every root-to-root cyclic path
          should pass through the trigger (advisory when not — such
          loads are covered only on the trigger's path).
========  ========================================================

``SL001`` covers the dynamic-slice structural invariants the slicer
must uphold (descending dynamic order, in-slice producer positions).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import ControlFlowGraph
from repro.analysis.report import Diagnostic, Severity
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.model.params import SelectionConstraints
from repro.pthreads.body import VIRTUAL_REG_BASE, analyze_dataflow
from repro.pthreads.pthread import StaticPThread
from repro.slicing.slicer import DynamicSlice


def _resolve_targets(
    instructions: Sequence[Instruction],
    targets: Optional[Sequence[int]],
    target_pcs: Optional[Sequence[int]],
    diagnostics: List[Diagnostic],
) -> List[int]:
    """Target body positions from explicit positions and/or static PCs.

    Unknown PCs and out-of-range positions are reported as PT003
    errors.  With nothing to resolve, the conventional target is the
    final instruction.
    """
    n = len(instructions)
    positions: Set[int] = set()
    if targets is not None:
        for position in targets:
            if 0 <= position < n:
                positions.add(position)
            else:
                diagnostics.append(
                    Diagnostic(
                        "PT003",
                        Severity.ERROR,
                        f"target position {position} outside body "
                        f"of size {n}",
                    )
                )
    if target_pcs is not None:
        for pc in target_pcs:
            matches = [
                position
                for position, inst in enumerate(instructions)
                if inst.pc == pc
            ]
            if not matches:
                diagnostics.append(
                    Diagnostic(
                        "PT003",
                        Severity.ERROR,
                        f"target pc#{pc:04d} has no instruction in the "
                        "body: the address chain cannot reach it",
                        pc=pc,
                    )
                )
            else:
                # Unrolled and merged bodies repeat a target PC, one
                # occurrence per covered dynamic instance — all of
                # them are targets.
                positions.update(matches)
    if not positions and n:
        positions.add(n - 1)
    return sorted(positions)


def verify_body(
    instructions: Sequence[Instruction],
    targets: Optional[Sequence[int]] = None,
    target_pcs: Optional[Sequence[int]] = None,
    max_length: Optional[int] = None,
    allow_terminal_branch: bool = True,
) -> List[Diagnostic]:
    """Check a p-thread body against the PT001–PT005 invariants.

    Operates on a raw instruction sequence so corrupted bodies (which
    :class:`~repro.pthreads.body.PThreadBody` would refuse to build)
    can still be diagnosed.

    Args:
        instructions: body instructions, oldest first.
        targets: explicit target body positions, if known.
        target_pcs: static PCs of the targeted problem loads (or the
            targeted branch); resolved against instruction ``pc``
            provenance.
        max_length: the ``SIZEpt`` constraint (PT005); skipped if None.
        allow_terminal_branch: accept a conditional branch as the final
            instruction (branch pre-execution).
    """
    diagnostics: List[Diagnostic] = []
    n = len(instructions)
    if n == 0:
        diagnostics.append(
            Diagnostic("PT003", Severity.ERROR, "body is empty")
        )
        return diagnostics

    # PT001 — control-free straight-line code.
    for position, inst in enumerate(instructions):
        terminal_branch = (
            allow_terminal_branch and inst.is_branch and position == n - 1
        )
        if (inst.is_control or inst.is_halt) and not terminal_branch:
            diagnostics.append(
                Diagnostic(
                    "PT001",
                    Severity.ERROR,
                    f"control-flow instruction in body: {inst}",
                    pc=inst.pc if inst.pc >= 0 else None,
                    position=position,
                )
            )

    # PT002 — reads must be defined upstream or be seedable live-ins.
    defined: Set[int] = set()
    for position, inst in enumerate(instructions):
        for src in inst.sources():
            if src is None:
                diagnostics.append(
                    Diagnostic(
                        "PT002",
                        Severity.ERROR,
                        f"missing source operand on {inst}",
                        pc=inst.pc if inst.pc >= 0 else None,
                        position=position,
                    )
                )
            elif src >= VIRTUAL_REG_BASE and src not in defined:
                diagnostics.append(
                    Diagnostic(
                        "PT002",
                        Severity.ERROR,
                        f"virtual register v{src - VIRTUAL_REG_BASE} read "
                        "before any body definition: virtual registers "
                        "cannot be seeded from the main thread",
                        pc=inst.pc if inst.pc >= 0 else None,
                        position=position,
                    )
                )
        dest = inst.dest()
        if dest is not None and dest != 0:
            defined.add(dest)

    # Dataflow-dependent checks are meaningless on a body whose
    # structure is already broken.
    if diagnostics:
        return diagnostics

    target_positions = _resolve_targets(
        instructions, targets, target_pcs, diagnostics
    )
    dataflow = analyze_dataflow(instructions)

    # PT003 — every instruction feeds a target; the final instruction
    # is a target (the root of the slice).
    live: Set[int] = set()
    work = list(target_positions)
    while work:
        position = work.pop()
        if position in live:
            continue
        live.add(position)
        work.extend(dataflow.reg_deps[position])
        mem = dataflow.mem_deps[position]
        if mem is not None:
            work.append(mem)
    if n - 1 not in target_positions:
        diagnostics.append(
            Diagnostic(
                "PT003",
                Severity.WARNING,
                "final body instruction is not a target: the slice root "
                "should terminate the body",
                position=n - 1,
            )
        )
    for position, inst in enumerate(instructions):
        if position not in live:
            diagnostics.append(
                Diagnostic(
                    "PT003",
                    Severity.WARNING,
                    f"instruction feeds no target (dead in the slice): "
                    f"{inst}",
                    pc=inst.pc if inst.pc >= 0 else None,
                    position=position,
                )
            )

    # PT004 — stores must forward to a later body load.
    consumed = {
        dep for dep in dataflow.mem_deps if dep is not None
    }
    for position, inst in enumerate(instructions):
        if inst.is_store and position not in consumed:
            diagnostics.append(
                Diagnostic(
                    "PT004",
                    Severity.WARNING,
                    f"store is never consumed by a later body load: "
                    f"{inst} (speculative stores do not commit)",
                    pc=inst.pc if inst.pc >= 0 else None,
                    position=position,
                )
            )

    # PT005 — SIZEpt constraint.
    if max_length is not None and n > max_length:
        diagnostics.append(
            Diagnostic(
                "PT005",
                Severity.ERROR,
                f"body length {n} exceeds the SIZEpt constraint "
                f"({max_length})",
            )
        )
    return diagnostics


def _verify_trigger(
    pthread: StaticPThread,
    program: Program,
    cfg: ControlFlowGraph,
) -> List[Diagnostic]:
    """PT006 — trigger placement in the source program."""
    diagnostics: List[Diagnostic] = []
    trigger = pthread.trigger_pc
    if not 0 <= trigger < len(program):
        diagnostics.append(
            Diagnostic(
                "PT006",
                Severity.ERROR,
                f"trigger pc#{trigger:04d} does not exist in "
                f"{program.name!r} ({len(program)} instructions)",
                pc=trigger,
            )
        )
        return diagnostics
    for root in pthread.target_load_pcs:
        if not 0 <= root < len(program):
            diagnostics.append(
                Diagnostic(
                    "PT006",
                    Severity.ERROR,
                    f"target pc#{root:04d} does not exist in the program",
                    pc=root,
                )
            )
            continue
        root_inst = program[root]
        if not (root_inst.is_load or root_inst.is_branch):
            diagnostics.append(
                Diagnostic(
                    "PT006",
                    Severity.ERROR,
                    f"target pc#{root:04d} is neither a load nor a "
                    f"conditional branch: {root_inst}",
                    pc=root,
                )
            )
            continue
        if not cfg.reaches(trigger, root):
            diagnostics.append(
                Diagnostic(
                    "PT006",
                    Severity.ERROR,
                    f"root pc#{root:04d} is unreachable from trigger "
                    f"pc#{trigger:04d}: no dynamic root instance can "
                    "follow a trigger instance",
                    pc=trigger,
                )
            )
            continue
        # Cyclic dominance: every root-to-root path should pass the
        # trigger, so each covered root instance has a fresh trigger
        # instance before it.  Roots on conditional paths fail this
        # benignly — coverage is partial, not wrong — hence advisory.
        dominated = all(
            successor == trigger
            or not cfg.reaches(successor, root, blocked={trigger})
            for successor in cfg.succs[root]
        )
        if not dominated:
            diagnostics.append(
                Diagnostic(
                    "PT006",
                    Severity.INFO,
                    f"trigger pc#{trigger:04d} does not dominate the "
                    f"root pc#{root:04d} cycle: some root instances "
                    "execute without a preceding trigger",
                    pc=trigger,
                )
            )
    return diagnostics


def verify_pthread(
    pthread: StaticPThread,
    program: Optional[Program] = None,
    constraints: Optional[SelectionConstraints] = None,
    cfg: Optional[ControlFlowGraph] = None,
) -> List[Diagnostic]:
    """Check one static p-thread against all PT invariants.

    Args:
        pthread: the p-thread to verify.
        program: source program, enabling the PT006 trigger checks.
        constraints: selection constraints; supplies the PT005 length
            limit (``None`` skips the length check, since a caller
            without constraints cannot know the machine's ``SIZEpt``).
            ``SIZEpt`` binds per merge component: the selector rejects
            over-long *candidates*, while the merger may then combine
            several compliant candidates into one longer body, so a
            merged p-thread's allowance scales with its component
            count.
        cfg: pre-built CFG of ``program`` (an optimization for callers
            verifying many p-threads of one program).
    """
    body = pthread.body
    target_pcs: Optional[Tuple[int, ...]] = pthread.target_load_pcs or None
    max_length: Optional[int] = None
    if constraints is not None:
        max_length = constraints.max_pthread_length * max(
            1, len(pthread.components)
        )
    diagnostics = verify_body(
        body.instructions,
        target_pcs=target_pcs,
        max_length=max_length,
    )
    if program is not None:
        if cfg is None:
            cfg = ControlFlowGraph.from_program(program)
        diagnostics.extend(_verify_trigger(pthread, program, cfg))
    return diagnostics


def verify_selection(
    program: Program,
    pthreads: Sequence[StaticPThread],
    constraints: Optional[SelectionConstraints] = None,
) -> List[Diagnostic]:
    """Verify every p-thread of a selection, sharing one program CFG."""
    cfg = ControlFlowGraph.from_program(program)
    diagnostics: List[Diagnostic] = []
    for pthread in pthreads:
        diagnostics.extend(
            verify_pthread(
                pthread, program=program, constraints=constraints, cfg=cfg
            )
        )
    return diagnostics


def verify_slice(dynamic_slice: DynamicSlice) -> List[Diagnostic]:
    """Check a dynamic slice's structural invariants (SL001).

    The slicer must return the root first, member dynamic indices in
    strictly descending order (the paper's linearized candidate
    chain), and in-slice producer positions that point at strictly
    *older* members (later positions).
    """
    diagnostics: List[Diagnostic] = []
    indices = dynamic_slice.indices
    if not indices or indices[0] != dynamic_slice.root:
        diagnostics.append(
            Diagnostic(
                "SL001",
                Severity.ERROR,
                f"slice of root {dynamic_slice.root} does not start at "
                "the root",
            )
        )
        return diagnostics
    for position in range(1, len(indices)):
        if indices[position] >= indices[position - 1]:
            diagnostics.append(
                Diagnostic(
                    "SL001",
                    Severity.ERROR,
                    f"slice indices not strictly descending at position "
                    f"{position}: {indices[position - 1]} -> "
                    f"{indices[position]}",
                    position=position,
                )
            )
    if len(dynamic_slice.dep_positions) != len(indices):
        diagnostics.append(
            Diagnostic(
                "SL001",
                Severity.ERROR,
                "dep_positions length does not match slice length",
            )
        )
        return diagnostics
    for position, deps in enumerate(dynamic_slice.dep_positions):
        for producer in deps:
            if not position < producer < len(indices):
                diagnostics.append(
                    Diagnostic(
                        "SL001",
                        Severity.ERROR,
                        f"producer position {producer} of slice position "
                        f"{position} does not point at an older member",
                        position=position,
                    )
                )
    return diagnostics

