"""Per-tree p-thread selection with overlap correction.

The composite selection problem for one static load (paper §3.2): from
the slice tree, find the set of candidate p-threads whose aggregate
advantages — with double-counted latency tolerance between parent and
child p-threads subtracted — sum to a maximum.

Aggregate advantage does not add across a parent/child pair: the
``DCpt-cm`` misses the child attacks are a subset of the parent's, and
once one p-thread has tolerated a miss's latency the other cannot
tolerate it again.  The correction charges the *parent* (it tolerates
less per miss)::

    ADVagg'(P) = ADVagg(P) − DCpt-cm(C) · LT(P)

The solver follows the paper's iterative procedure: select the best
candidate per leaf independently, then reduce the advantages of
overlapping parents and re-select, terminating when an iteration's
reductions no longer change the selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.isa.program import Program
from repro.model.advantage import CandidateScore, evaluate_candidate
from repro.model.params import ModelParams, SelectionConstraints
from repro.pthreads.body import PThreadBody
from repro.pthreads.optimizer import optimize_body
from repro.slicing.slice_tree import SliceNode, SliceTree


@dataclass(frozen=True)
class TreeCandidate:
    """A scored candidate p-thread (one slice-tree node).

    Attributes:
        node: the trigger node in the slice tree.
        score: aggregate-advantage evaluation.
        body: the body the p-thread executes (optimized if enabled).
        original: the unoptimized computation (tree-path instructions).
    """

    node: SliceNode
    score: CandidateScore
    body: PThreadBody
    original: PThreadBody

    @property
    def trigger_pc(self) -> int:
        return self.node.pc


def is_strict_ancestor(ancestor: SliceNode, node: SliceNode) -> bool:
    """True if ``ancestor`` lies strictly between ``node`` and the root.

    In slice-tree terms the *shallower* node is the shorter, less
    specialized p-thread — the "parent p-thread" of the paper's
    overlap discussion.
    """
    if ancestor.depth >= node.depth:
        return False
    walk: Optional[SliceNode] = node.parent
    while walk is not None and walk.depth >= ancestor.depth:
        if walk is ancestor:
            return True
        walk = walk.parent
    return False


def enumerate_candidates(
    tree: SliceTree,
    program: Program,
    dc_trig: Dict[int, int],
    params: ModelParams,
    constraints: SelectionConstraints,
) -> Dict[int, TreeCandidate]:
    """Score every legal candidate in a slice tree.

    Returns a mapping from ``id(node)`` to the candidate.  Nodes whose
    (post-optimization) body exceeds the length constraint are not
    candidates.
    """
    candidates: Dict[int, TreeCandidate] = {}
    for node in tree.nodes():
        if node.depth == 0:
            continue
        if node.visits < constraints.min_support:
            continue
        path = node.path_to_root()
        body_nodes = path[1:]  # execution order: oldest first, root last
        instructions = [program[body_node.pc] for body_node in body_nodes]
        original = PThreadBody(instructions)
        if constraints.optimize:
            executed = optimize_body(original).body
        else:
            executed = original
        if executed.size > constraints.max_pthread_length:
            continue
        mt_distances = []
        for position, body_node in enumerate(body_nodes):
            # +1: main-thread DISTtrig includes the trigger's own fetch
            # slot (see repro.model.advantage distance conventions).
            distance = node.dist_pl - body_node.dist_pl + 1.0
            mt_distances.append(max(distance, float(position + 2)))
        score = evaluate_candidate(
            trigger_pc=node.pc,
            load_pc=tree.load_pc,
            depth=node.depth,
            original=instructions,
            mt_distances=mt_distances,
            executed_body=executed,
            dc_trig=dc_trig.get(node.pc, 0),
            dc_pt_cm=node.visits,
            params=params,
        )
        candidates[id(node)] = TreeCandidate(
            node=node, score=score, body=executed, original=original
        )
    return candidates


def _adjusted_advantage(
    candidate: TreeCandidate, others: Sequence[TreeCandidate]
) -> float:
    """Candidate's advantage given an existing selection ``others``."""
    advantage = candidate.score.adv_agg
    for other in others:
        if other.node is candidate.node:
            continue
        if is_strict_ancestor(candidate.node, other.node):
            # candidate is the parent: its tolerance of the child's
            # misses is double-counted.
            advantage -= other.score.dc_pt_cm * candidate.score.lt
        elif is_strict_ancestor(other.node, candidate.node):
            # candidate is the child: joining costs the parent's
            # double-counted tolerance (charged here so the marginal
            # gain of adding the candidate is correct).
            advantage -= candidate.score.dc_pt_cm * other.score.lt
    return advantage


@dataclass
class TreeSelection:
    """Result of selecting p-threads for one slice tree."""

    selected: List[TreeCandidate]
    iterations: int


def select_from_tree(
    tree: SliceTree,
    program: Program,
    dc_trig: Dict[int, int],
    params: ModelParams,
    constraints: SelectionConstraints,
    max_iterations: int = 16,
) -> TreeSelection:
    """Select the best p-thread set for one static load's slice tree."""
    candidates = enumerate_candidates(tree, program, dc_trig, params, constraints)
    # Canonical leaf order (by root-to-leaf PC path): the iterative
    # reselection is a coordinate ascent whose fixpoint can depend on
    # visit order, so pin it down — selection results must not depend
    # on dict insertion order (e.g. trees reloaded from files).
    leaves = sorted(
        (leaf for leaf in tree.leaves() if leaf.depth > 0),
        key=lambda leaf: tuple(
            node.pc for node in reversed(leaf.path_to_root())
        ),
    )

    # Candidate chain per leaf: candidates on the leaf's root path.
    chains: List[List[TreeCandidate]] = []
    for leaf in leaves:
        chain = []
        for node in leaf.path_to_root():
            candidate = candidates.get(id(node))
            if candidate is not None:
                chain.append(candidate)
        if chain:
            chains.append(chain)

    selection: List[Optional[TreeCandidate]] = [None] * len(chains)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        changed = False
        for chain_index, chain in enumerate(chains):
            others: List[TreeCandidate] = []
            seen = set()
            for other_index, chosen in enumerate(selection):
                if chosen is None or other_index == chain_index:
                    continue
                if id(chosen.node) not in seen:
                    seen.add(id(chosen.node))
                    others.append(chosen)
            best: Optional[TreeCandidate] = None
            best_value = 0.0
            for candidate in chain:
                value = _adjusted_advantage(candidate, others)
                if value > best_value:
                    best, best_value = candidate, value
            if best is not selection[chain_index]:
                selection[chain_index] = best
                changed = True
        if not changed:
            break

    unique: List[TreeCandidate] = []
    seen_nodes = set()
    for chosen in selection:
        if chosen is not None and id(chosen.node) not in seen_nodes:
            seen_nodes.add(id(chosen.node))
            unique.append(chosen)
    unique.sort(key=lambda c: (c.node.depth, c.node.pc))
    return TreeSelection(selected=unique, iterations=iterations)
