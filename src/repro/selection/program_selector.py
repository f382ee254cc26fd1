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
    TreeSelection,
    is_strict_ancestor,
    select_from_tree,
)
from repro.slicing.slice_tree import build_slice_trees


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
    tree_selections: Dict[int, TreeSelection]
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


def select_pthreads(
    program: Program,
    trace: Trace,
    params: ModelParams,
    constraints: Optional[SelectionConstraints] = None,
    miss_level: int = 3,
    region: Optional[Tuple[int, int]] = None,
    sample_l2_misses: Optional[int] = None,
) -> ProgramSelection:
    """Select static p-threads for a traced program sample.

    Args:
        program: the program the trace came from.
        trace: dynamic trace with miss levels and dependence edges.
        params: model parameters (width, latency, unassisted IPC).
        constraints: p-thread construction constraints.
        miss_level: minimum memory level that counts as a problem miss.
        region: optional ``(start, end)`` dynamic-index window — the
            statistical basis is restricted to this region (used by the
            selection-granularity experiments).
        sample_l2_misses: total problem misses in the sample, for
            coverage fractions; defaults to the count found in the
            region.
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
            miss_level=miss_level,
            start=start,
            end=end,
        )
        dc_trig = _dc_trig_counts(trace, len(program), start, end)

    tree_selections: Dict[int, TreeSelection] = {}
    pthreads: List[StaticPThread] = []
    covered_total = 0
    fully_total = 0
    lt_agg_total = 0.0
    with tracer.span("select_trees"):
        for load_pc in sorted(trees):
            selection = select_from_tree(
                trees[load_pc], program, dc_trig, params, constraints
            )
            tree_selections[load_pc] = selection
            effective = _effective_coverage(selection.selected)
            for candidate in selection.selected:
                covered = effective[id(candidate.node)]
                pthread = _candidate_to_pthread(candidate, covered, params)
                pthreads.append(pthread)
                covered_total += pthread.prediction.misses_covered
                fully_total += pthread.prediction.misses_fully_covered
                lt_agg_total += pthread.prediction.lt_agg

    with tracer.span("merge"):
        if constraints.merge:
            pthreads = merge_pthreads(pthreads, optimize=constraints.optimize)

    launches = sum(p.prediction.dc_trig for p in pthreads)
    injected = sum(p.prediction.injected_instructions for p in pthreads)
    oh_agg_total = sum(p.prediction.oh_agg for p in pthreads)

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
    region_misses = sum(tree.total_misses() for tree in trees.values())
    prediction = ProgramPrediction(
        launches=launches,
        injected_instructions=injected,
        misses_covered=covered_total,
        misses_fully_covered=fully_total,
        lt_agg=lt_agg_total,
        oh_agg=oh_agg_total,
        sample_instructions=stop - start,
        sample_l2_misses=(
            sample_l2_misses if sample_l2_misses is not None else region_misses
        ),
        unassisted_ipc=params.unassisted_ipc,
        sequencing_width=params.bw_seq,
    )
    return ProgramSelection(
        pthreads=pthreads,
        tree_selections=tree_selections,
        prediction=prediction,
        params=params,
        constraints=constraints,
    )
