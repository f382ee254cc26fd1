"""P-thread optimization: specialization of straight-line bodies.

The paper: "P-thread optimization is both easier and more productive
than full program optimization.  First, since p-threads are
control-less, traditional control-flow and iterative data-flow analyses
are replaced by a simple linear scan.  Second, only optimizations that
are enabled by the highly specialized nature of the p-thread need be
considered.  We have found that store-load pair elimination and
constant folding capture most p-thread optimization opportunities."

Passes implemented (each a linear scan, iterated to a fixpoint):

* **register-move elimination** — copy propagation of ``mov`` results
  into later uses (the paper notes this has almost no impact, and that
  matches our measurements, but it feeds the other passes);
* **store-load pair elimination** — a load whose value provably comes
  from an earlier body store is replaced by a ``mov`` from the stored
  value; the store then usually dies;
* **constant folding** — collapsing chains of immediate additions
  (``addi r5, r5, 16; addi r5, r5, 16`` → ``addi r5, r5, 32``), the
  idiom created by induction unrolling, plus immediate-operand
  simplifications;
* **dead-code elimination** — instructions whose results do not reach
  any target load are dropped.

All passes preserve the value computed at every *target* position
(by default the final problem load); tests verify this by executing
original and optimized bodies on randomized seeds and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pthreads.body import BodyDataflow, PThreadBody, analyze_dataflow

#: Opcodes that are pure immediate additions (foldable chains).
_ADDITIVE = (Opcode.ADDI,)


@dataclass(frozen=True)
class OptimizationReport:
    """What the optimizer did to one body."""

    original_size: int
    optimized_size: int
    moves_eliminated: int = 0
    store_load_pairs_eliminated: int = 0
    constants_folded: int = 0
    dead_instructions_removed: int = 0

    @property
    def removed(self) -> int:
        return self.original_size - self.optimized_size


def _target_positions(
    body_len: int, targets: Optional[Sequence[int]]
) -> List[int]:
    if targets is None:
        return [body_len - 1]
    positions = sorted(set(targets))
    if not positions:
        raise ValueError("at least one target position is required")
    if positions[0] < 0 or positions[-1] >= body_len:
        raise ValueError(f"target positions out of range: {positions}")
    return positions


def eliminate_moves(
    instructions: List[Instruction],
) -> Tuple[List[Instruction], int]:
    """Copy-propagate ``mov rd, rs`` into later uses.

    The mov itself is left in place for DCE to collect (it may still
    feed positions we cannot rewrite).
    """
    # copies: destination register -> source register currently valid
    copies: Dict[int, int] = {}
    rewritten = 0
    out: List[Instruction] = []
    for inst in instructions:
        if copies:
            # ``None`` is never a key, and a copy's source never is.
            rs1 = copies.get(inst.rs1)
            rs2 = copies.get(inst.rs2)
            if rs1 is not None or rs2 is not None:
                inst = inst.renamed(rs1=rs1, rs2=rs2)
                rewritten += 1
        dest = inst.dest()
        if dest is not None and dest != 0:
            if copies:
                # Any copy *of* dest or *through* dest is invalidated.
                copies.pop(dest, None)
                for key in [k for k, v in copies.items() if v == dest]:
                    copies.pop(key)
            if inst.op is Opcode.MOV and inst.rs1 not in (None, dest):
                copies[dest] = inst.rs1
        out.append(inst)
    return out, rewritten


def eliminate_store_load_pairs(
    instructions: List[Instruction],
    dataflow: Optional[BodyDataflow] = None,
    assume_no_alias: bool = True,
) -> Tuple[List[Instruction], int]:
    """Replace loads forwarded from body stores with register moves.

    A load is rewritten when (a) static dataflow matches it to an
    earlier store at the same base definition + displacement, and
    (b) the stored value's register still holds that value at the load.
    Without ``assume_no_alias`` a store between the two, which may
    alias the load at run time, also blocks the rewrite (see
    :func:`eliminate_dead_code`).

    ``dataflow`` is :func:`analyze_dataflow` of ``instructions`` when
    the caller already has it.
    """
    if dataflow is None:
        dataflow = analyze_dataflow(instructions)
    defs = dataflow.defs
    eliminated = 0
    out = list(instructions)
    for position, store_pos in enumerate(dataflow.mem_deps):
        if store_pos is None:
            continue
        inst = instructions[position]
        if not inst.is_load:
            continue
        value_reg = instructions[store_pos].rs2
        if value_reg is None:
            continue
        # The value register must not have been redefined between the
        # store and the load.
        if value_reg in defs[store_pos:position]:
            continue
        if not assume_no_alias and any(
            instructions[k].is_store for k in range(store_pos + 1, position)
        ):
            continue
        out[position] = Instruction(
            Opcode.MOV, rd=inst.rd, rs1=value_reg, pc=inst.pc
        )
        eliminated += 1
    return out, eliminated


def fold_constants(
    instructions: List[Instruction],
    protected: Optional[Set[int]] = None,
    dataflow: Optional[BodyDataflow] = None,
) -> Tuple[List[Instruction], int, Optional[int]]:
    """Collapse one immediate-add chain link (induction-unrolling idiom).

    ``addi rX, rY, c1`` followed by ``addi rZ, rX, c2`` — where the
    intermediate value has no other consumer — becomes
    ``addi rZ, rY, c1 + c2`` and the first instruction is removed.
    At most one link is folded per call; the optimizer's fixpoint loop
    drives chains of any depth (the producer must be deleted in the
    same step, otherwise a surviving self-chain ``addi r5, r5, 16``
    would be applied twice).

    Args:
        protected: positions that must not be deleted (optimization
            targets).
        dataflow: :func:`analyze_dataflow` of ``instructions``, when
            the caller already has it.

    Returns:
        ``(instructions, links_folded, deleted_position)`` — callers
        must shift any position bookkeeping past ``deleted_position``.
    """
    if protected is None:
        protected = set()
    if dataflow is None:
        dataflow = analyze_dataflow(instructions)
    use_counts = [0] * len(instructions)
    for producers, mem in zip(dataflow.reg_deps, dataflow.mem_deps):
        for producer in producers:
            use_counts[producer] += 1
        if mem is not None:
            use_counts[mem] += 1
    for position, inst in enumerate(instructions):
        if inst.op not in _ADDITIVE:
            continue
        producers = dataflow.reg_deps[position]
        if len(producers) != 1:
            continue
        producer_pos = producers[0]
        if producer_pos in protected:
            continue
        producer = instructions[producer_pos]
        if producer.op not in _ADDITIVE:
            continue
        if use_counts[producer_pos] != 1:
            continue
        if producer.rs1 is None:
            continue
        # Safety: the producer's *input* value must still be in
        # producer.rs1 at `position` once the producer is deleted — no
        # other instruction in between may define that register.
        clobbered = any(
            instructions[k].dest() == producer.rs1
            for k in range(producer_pos + 1, position)
        )
        if clobbered:
            continue
        out = list(instructions)
        out[position] = replace(
            inst, rs1=producer.rs1, imm=inst.imm + producer.imm
        )
        del out[producer_pos]
        return out, 1, producer_pos
    return list(instructions), 0, None


def eliminate_dead_code(
    instructions: List[Instruction],
    targets: Sequence[int],
    assume_no_alias: bool = True,
    dataflow: Optional[BodyDataflow] = None,
) -> Tuple[List[Instruction], List[int], int]:
    """Keep only instructions whose results reach a target position.

    Returns the surviving instructions, the new positions of the
    targets, and the number of instructions removed.

    Stores need care: static store/load matching is a *must*-alias
    analysis, so a load may still be forwarded at run time from an
    earlier store it was not matched to: any earlier store when it has
    no static producer, else a store between that producer and the
    load.  With ``assume_no_alias`` (the
    default) such stores are deleted anyway — the slicer recorded the
    load's dynamic memory producer, so an unmatched load demonstrably
    read program memory in the profiled executions, and p-threads are
    speculative prefetchers in any case.  Pass ``False`` for strictly
    semantics-preserving dead-code elimination (used by tests and any
    caller without profile evidence).

    ``dataflow`` is :func:`analyze_dataflow` of ``instructions`` when
    the caller already has it.
    """
    targets = _target_positions(len(instructions), targets)
    if dataflow is None:
        dataflow = analyze_dataflow(instructions)
    reg_deps = dataflow.reg_deps
    mem_deps = dataflow.mem_deps
    live: Set[int] = set()
    work = list(targets)
    while work:
        position = work.pop()
        if position not in live:
            live.add(position)
            work.extend(reg_deps[position])
            mem = mem_deps[position]
            if mem is not None:
                work.append(mem)
        if work or assume_no_alias:
            continue
        # Conservative mode fixpoint: pull in stores that may alias a
        # live load occurring after them — any earlier store for an
        # unknown-source load, else one after its static producer.
        windows = [
            (-1 if mem_deps[load] is None else mem_deps[load], load)
            for load in live
            if instructions[load].is_load
        ]
        if windows:
            for position, inst in enumerate(instructions):
                if (
                    position not in live
                    and inst.is_store
                    and any(lo < position < load for lo, load in windows)
                ):
                    work.append(position)
    keep = sorted(live)
    remap = {old: new for new, old in enumerate(keep)}
    survivors = [instructions[old] for old in keep]
    new_targets = [remap[t] for t in targets]
    return survivors, new_targets, len(instructions) - len(survivors)


@dataclass(frozen=True)
class OptimizedBody:
    """Result of :func:`optimize_body`."""

    body: PThreadBody
    targets: Tuple[int, ...]
    report: OptimizationReport


# Memoization of optimize_body: selection sweeps (notably the
# region-granularity experiment) re-optimize identical tree paths many
# thousands of times.  The key includes instruction PCs (excluded from
# Instruction equality) because body provenance matters downstream.
_MEMO: Dict[tuple, OptimizedBody] = {}
_MEMO_LIMIT = 1 << 16


def _memo_key(body: PThreadBody, targets, assume_no_alias: bool) -> tuple:
    return (
        tuple(
            (inst.op, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.pc)
            for inst in body.instructions
        ),
        tuple(targets) if targets is not None else None,
        assume_no_alias,
    )


def optimize_body(
    body: PThreadBody,
    targets: Optional[Sequence[int]] = None,
    max_passes: int = 64,
    assume_no_alias: bool = True,
) -> OptimizedBody:
    """Optimize a p-thread body, preserving all target values.

    Args:
        body: the body to optimize.
        targets: positions whose computed values (for loads: addresses
            and values) must be preserved; defaults to the final
            instruction (the problem load).
        max_passes: fixpoint iteration bound.
        assume_no_alias: delete stores not statically matched to a
            surviving load (see :func:`eliminate_dead_code`); the
            paper-faithful default for profile-derived slices.
    """
    key = _memo_key(body, targets, assume_no_alias)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    instructions = list(body.instructions)
    target_list = _target_positions(len(instructions), targets)
    # Each pass is handed the dataflow of its input.  A pass that
    # reports no change returns an element-wise equal list, whose
    # dataflow is the same, so it is recomputed only after a change.
    dataflow = body.dataflow
    moves = pairs = folds = dead = 0
    for _ in range(max_passes):
        before = instructions
        instructions, n_moves = eliminate_moves(instructions)
        moves += n_moves
        if n_moves:
            dataflow = analyze_dataflow(instructions)
        instructions, n_pairs = eliminate_store_load_pairs(
            instructions, dataflow, assume_no_alias=assume_no_alias
        )
        pairs += n_pairs
        if n_pairs:
            dataflow = analyze_dataflow(instructions)
        instructions, n_folds, deleted = fold_constants(
            instructions, protected=set(target_list), dataflow=dataflow
        )
        folds += n_folds
        if deleted is not None:
            target_list = [
                t - 1 if t > deleted else t for t in target_list
            ]
        if n_folds:
            dataflow = analyze_dataflow(instructions)
        instructions, target_list, n_dead = eliminate_dead_code(
            instructions,
            target_list,
            assume_no_alias=assume_no_alias,
            dataflow=dataflow,
        )
        dead += n_dead
        if n_dead:
            dataflow = analyze_dataflow(instructions)
        if instructions == before:
            break
    report = OptimizationReport(
        original_size=body.size,
        optimized_size=len(instructions),
        moves_eliminated=moves,
        store_load_pairs_eliminated=pairs,
        constants_folded=folds,
        dead_instructions_removed=dead,
    )
    result = OptimizedBody(
        body=PThreadBody(instructions),
        targets=tuple(target_list),
        report=report,
    )
    # Debug-mode post-pass: static verification supplements the
    # randomized-execution oracle the optimizer tests use (lazy import:
    # repro.analysis imports this module).
    from repro.analysis.report import assert_clean, verification_enabled

    if verification_enabled():
        from repro.analysis.verifier import verify_body

        assert_clean(
            verify_body(result.body.instructions, targets=result.targets),
            f"optimize_body({body.size} -> {result.body.size} insts)",
        )
    if len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.clear()
    _MEMO[key] = result
    return result
