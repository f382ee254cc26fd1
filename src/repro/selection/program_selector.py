"""Whole-program p-thread selection.

Divides the program's p-thread selection problem into per-static-load
sub-problems (the paper's decomposition — a p-thread for one load never
overlaps one for another load), solves each slice tree, converts the
winning candidates into :class:`~repro.pthreads.pthread.StaticPThread`
objects with coverage-corrected predictions, and optionally merges
p-threads that share triggers and dataflow prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.trace import Trace
from repro.isa.program import Program
from repro.model.params import ModelParams, SelectionConstraints
from repro.obs import get_tracer
from repro.pthreads.merger import merge_pthreads
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.selection.selector import (
    TreeCandidate,
    is_strict_ancestor,
    select_from_tree,
)
from repro.slicing.slice_tree import SliceTree, build_slice_trees


@dataclass(frozen=True)
class ProgramPrediction:
    """Aggregate framework predictions over a program sample.

    These are the diagnostics the paper's Table 2 validates against
    simulation: launches, p-thread length, miss coverage (full and
    partial), and the aggregate overhead/latency-tolerance cycles that
    translate into the overhead-only and latency-only IPC predictions.
    """

    launches: int
    injected_instructions: int
    misses_covered: int
    misses_fully_covered: int
    lt_agg: float
    oh_agg: float
    sample_instructions: int
    sample_l2_misses: int
    unassisted_ipc: float
    sequencing_width: int = 8

    @property
    def adv_agg(self) -> float:
        return self.lt_agg - self.oh_agg

    @property
    def avg_pthread_length(self) -> float:
        if not self.launches:
            return 0.0
        return self.injected_instructions / self.launches

    @property
    def coverage_fraction(self) -> float:
        if not self.sample_l2_misses:
            return 0.0
        return self.misses_covered / self.sample_l2_misses

    @property
    def full_coverage_fraction(self) -> float:
        if not self.sample_l2_misses:
            return 0.0
        return self.misses_fully_covered / self.sample_l2_misses

    def _base_cycles(self) -> float:
        return self.sample_instructions / self.unassisted_ipc

    def _min_cycles(self) -> float:
        """Cycles cannot drop below the sequencing-bandwidth bound."""
        return self.sample_instructions / self.sequencing_width

    @property
    def predicted_ipc(self) -> float:
        """IPC with both overhead and latency tolerance applied."""
        cycles = max(self._base_cycles() - self.adv_agg, self._min_cycles())
        return self.sample_instructions / cycles

    @property
    def predicted_overhead_ipc(self) -> float:
        """IPC of an overhead-only implementation."""
        cycles = self._base_cycles() + self.oh_agg
        return self.sample_instructions / cycles

    @property
    def predicted_latency_ipc(self) -> float:
        """IPC of a latency-tolerance-only implementation."""
        cycles = max(self._base_cycles() - self.lt_agg, self._min_cycles())
        return self.sample_instructions / cycles

    @property
    def predicted_speedup(self) -> float:
        if self.unassisted_ipc <= 0:
            return 0.0
        return self.predicted_ipc / self.unassisted_ipc - 1.0


@dataclass
class ProgramSelection:
    """Output of :func:`select_pthreads`."""

    pthreads: List[StaticPThread]
    prediction: ProgramPrediction
    params: ModelParams
    constraints: SelectionConstraints

    def describe(self) -> str:
        lines = [
            f"{len(self.pthreads)} static p-thread(s); predicted launches "
            f"{self.prediction.launches}, coverage "
            f"{self.prediction.coverage_fraction:.1%} "
            f"(full {self.prediction.full_coverage_fraction:.1%}), "
            f"predicted speedup {self.prediction.predicted_speedup:+.1%}"
        ]
        lines.extend("  " + p.describe() for p in self.pthreads)
        return "\n".join(lines)


def slice_tree_depth(constraints: SelectionConstraints) -> int:
    """Depth of the slice trees selection builds: twice the longest
    p-thread, so optimization can shorten longer raw slices, and at
    least 48."""
    return max(constraints.max_pthread_length * 2, 48)


def _dc_trig_counts(
    trace: Trace, num_static: int, start: int, end: Optional[int]
) -> Dict[int, int]:
    """Dynamic executions of every static PC within a region."""
    stop = len(trace) if end is None else min(end, len(trace))
    pcs = trace.pc[start:stop]
    counts = np.bincount(pcs, minlength=num_static)
    return {pc: int(count) for pc, count in enumerate(counts) if count}


def _effective_coverage(
    selected: Sequence[TreeCandidate],
) -> Dict[int, int]:
    """Misses attributed to each selected candidate, overlap-corrected.

    A selected parent is credited only with misses not already covered
    by its *maximal* selected descendants — matching the advantage
    correction and preventing double-counted coverage predictions.
    """
    effective: Dict[int, int] = {}
    for candidate in selected:
        covered = candidate.score.dc_pt_cm
        # Maximal selected strict descendants: descendants with no
        # selected candidate strictly between them and `candidate`.
        for other in selected:
            if not is_strict_ancestor(candidate.node, other.node):
                continue
            has_intermediate = any(
                is_strict_ancestor(candidate.node, mid.node)
                and is_strict_ancestor(mid.node, other.node)
                for mid in selected
            )
            if not has_intermediate:
                covered -= other.score.dc_pt_cm
        effective[id(candidate.node)] = max(0, covered)
    return effective


def _candidate_to_pthread(
    candidate: TreeCandidate,
    effective_covered: int,
    params: ModelParams,
) -> StaticPThread:
    score = candidate.score
    fully = effective_covered if score.lt >= params.mem_latency else 0
    prediction = PThreadPrediction(
        dc_trig=score.dc_trig,
        size=score.size,
        misses_covered=effective_covered,
        misses_fully_covered=fully,
        lt_agg=effective_covered * score.lt,
        oh_agg=score.oh_agg,
    )
    instances_ahead = sum(
        1
        for inst in candidate.original.instructions
        if inst.pc == score.trigger_pc
    )
    return StaticPThread(
        trigger_pc=score.trigger_pc,
        body=candidate.body,
        target_load_pcs=(score.load_pc,),
        prediction=prediction,
        components=(score,),
        original_body=candidate.original,
        original_targets=(candidate.original.size - 1,),
        instances_ahead=instances_ahead,
    )


def _select_trees(
    trees: Dict[int, SliceTree],
    program: Program,
    dc_trig: Dict[int, int],
    params: ModelParams,
    constraints: SelectionConstraints,
) -> List[StaticPThread]:
    """The per-tree loop, in root-PC order: select each tree's
    candidates, correct their coverage for overlap and convert them to
    p-threads."""
    pthreads: List[StaticPThread] = []
    for pc in sorted(trees):
        selection = select_from_tree(
            trees[pc], program, dc_trig, params, constraints
        )
        effective = _effective_coverage(selection.selected)
        for candidate in selection.selected:
            covered = effective[id(candidate.node)]
            pthreads.append(_candidate_to_pthread(candidate, covered, params))
    return pthreads


def _prediction(
    chosen: Sequence[StaticPThread],
    pthreads: Sequence[StaticPThread],
    trees: Dict[int, SliceTree],
    sample_instructions: int,
    params: ModelParams,
) -> ProgramPrediction:
    """The program-level prediction of one selection.

    Coverage and latency tolerance add up over the p-threads the trees
    chose (``chosen``); launches, injected instructions and overhead
    over the ones that run (``pthreads``, after any merge).  The
    sample's problem events are the trees' roots.
    """
    covered = fully = 0
    lt_agg = 0.0
    for pthread in chosen:
        covered += pthread.prediction.misses_covered
        fully += pthread.prediction.misses_fully_covered
        lt_agg += pthread.prediction.lt_agg
    return ProgramPrediction(
        launches=sum(p.prediction.dc_trig for p in pthreads),
        injected_instructions=sum(
            p.prediction.injected_instructions for p in pthreads
        ),
        misses_covered=covered,
        misses_fully_covered=fully,
        lt_agg=lt_agg,
        oh_agg=sum(p.prediction.oh_agg for p in pthreads),
        sample_instructions=sample_instructions,
        sample_l2_misses=sum(tree.total_misses() for tree in trees.values()),
        unassisted_ipc=params.unassisted_ipc,
        sequencing_width=params.bw_seq,
    )


def select_pthreads(
    program: Program,
    trace: Trace,
    params: ModelParams,
    constraints: Optional[SelectionConstraints] = None,
    region: Optional[Tuple[int, int]] = None,
) -> ProgramSelection:
    """Select static p-threads for a traced program sample.

    Args:
        program: the program the trace came from.
        trace: dynamic trace with miss levels and dependence edges.
        params: model parameters (width, latency, unassisted IPC).
        constraints: p-thread construction constraints.
        region: optional ``(start, end)`` dynamic-index window — the
            statistical basis is restricted to this region (a profile
            prefix, or one window of a granularity cell).
    """
    constraints = constraints or SelectionConstraints()
    start, end = region if region is not None else (0, None)
    # One span per stage of this call, never one per tree or per body
    # (DESIGN §8): the per-tree loop is the hot one.
    tracer = get_tracer()
    with tracer.span("slice_trees"):
        trees = build_slice_trees(
            trace,
            scope=constraints.scope,
            max_length=slice_tree_depth(constraints),
            start=start,
            end=end,
        )
        dc_trig = _dc_trig_counts(trace, len(program), start, end)

    with tracer.span("select_trees"):
        chosen = _select_trees(trees, program, dc_trig, params, constraints)

    with tracer.span("merge"):
        pthreads = chosen
        if constraints.merge:
            pthreads = merge_pthreads(chosen, optimize=constraints.optimize)

    # Debug-mode post-pass: the finished selection must satisfy every
    # p-thread invariant (lazy import: repro.analysis imports this
    # package's types).
    from repro.analysis.report import assert_clean, verification_enabled

    if verification_enabled():
        from repro.analysis.verifier import verify_selection

        assert_clean(
            verify_selection(program, pthreads, constraints),
            f"select_pthreads({program.name!r}, {len(pthreads)} p-threads)",
        )

    stop = len(trace) if end is None else min(end, len(trace))
    return ProgramSelection(
        pthreads=pthreads,
        prediction=_prediction(chosen, pthreads, trees, stop - start, params),
        params=params,
        constraints=constraints,
    )
