"""Tests for per-tree candidate enumeration and overlap-aware selection."""

import numpy as np
import pytest

from repro.engine.functional import run_program
from repro.model.params import ModelParams, SelectionConstraints
from repro.selection.selector import (
    _adjusted_advantage,
    enumerate_candidates,
    is_strict_ancestor,
    select_from_tree,
)
from repro.slicing.slice_tree import build_slice_trees
from repro.workloads import pharmacy

PARAMS = ModelParams(bw_seq=8, unassisted_ipc=0.8, mem_latency=70, load_latency=2)


@pytest.fixture(scope="module")
def pharmacy_setup(pharmacy_small, pharmacy_small_run):
    trace = pharmacy_small_run.trace
    trees = build_slice_trees(trace, scope=1024, max_length=48)
    tree = trees[pharmacy.PROBLEM_LOAD_PC]
    counts = np.bincount(trace.pc, minlength=len(pharmacy_small))
    dc_trig = {pc: int(c) for pc, c in enumerate(counts) if c}
    return pharmacy_small, tree, dc_trig


class TestAncestry:
    def test_parent_is_ancestor(self, pharmacy_setup):
        _, tree, _ = pharmacy_setup
        for node in tree.nodes():
            for child in node.children.values():
                assert is_strict_ancestor(node, child)
                assert not is_strict_ancestor(child, node)

    def test_node_not_its_own_ancestor(self, pharmacy_setup):
        _, tree, _ = pharmacy_setup
        for node in tree.nodes():
            assert not is_strict_ancestor(node, node)

    def test_siblings_not_ancestors(self, pharmacy_setup):
        _, tree, _ = pharmacy_setup
        for node in tree.nodes():
            children = list(node.children.values())
            for i, a in enumerate(children):
                for b in children[i + 1 :]:
                    assert not is_strict_ancestor(a, b)
                    assert not is_strict_ancestor(b, a)


class TestEnumeration:
    def test_root_is_not_a_candidate(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        candidates = enumerate_candidates(
            tree, program, dc_trig, PARAMS, SelectionConstraints()
        )
        assert id(tree.root) not in candidates

    def test_length_constraint_enforced(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        constraints = SelectionConstraints(max_pthread_length=4, optimize=False)
        candidates = enumerate_candidates(
            tree, program, dc_trig, PARAMS, constraints
        )
        assert all(c.body.size <= 4 for c in candidates.values())

    def test_optimization_admits_longer_raw_slices(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        raw = enumerate_candidates(
            tree,
            program,
            dc_trig,
            PARAMS,
            SelectionConstraints(max_pthread_length=8, optimize=False),
        )
        optimized = enumerate_candidates(
            tree,
            program,
            dc_trig,
            PARAMS,
            SelectionConstraints(max_pthread_length=8, optimize=True),
        )
        # Folding induction chains lets deeper tree nodes qualify.
        assert len(optimized) > len(raw)

    def test_min_support_filters(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        high = enumerate_candidates(
            tree, program, dc_trig, PARAMS, SelectionConstraints(min_support=50)
        )
        low = enumerate_candidates(
            tree, program, dc_trig, PARAMS, SelectionConstraints(min_support=1)
        )
        assert len(high) < len(low)
        assert all(c.score.dc_pt_cm >= 50 for c in high.values())

    def test_bodies_end_at_problem_load(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        candidates = enumerate_candidates(
            tree, program, dc_trig, PARAMS, SelectionConstraints()
        )
        for candidate in candidates.values():
            assert candidate.body.instructions[-1].is_load
            assert candidate.original.instructions[-1].pc == tree.load_pc


class TestSelection:
    def test_selection_nonempty_and_positive(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        selection = select_from_tree(
            tree, program, dc_trig, PARAMS, SelectionConstraints()
        )
        assert selection.selected
        for candidate in selection.selected:
            assert candidate.score.adv_agg > 0

    def test_selected_cover_both_arms(self, pharmacy_setup):
        """Both the #04 and #06 computations need a p-thread (or a
        shared ancestor covering both)."""
        program, tree, dc_trig = pharmacy_setup
        selection = select_from_tree(
            tree, program, dc_trig, PARAMS, SelectionConstraints()
        )
        covered = sum(c.score.dc_pt_cm for c in selection.selected)
        assert covered >= 0.9 * tree.total_misses()

    def test_no_duplicate_nodes(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        selection = select_from_tree(
            tree, program, dc_trig, PARAMS, SelectionConstraints()
        )
        ids = [id(c.node) for c in selection.selected]
        assert len(ids) == len(set(ids))

    def test_converges(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        selection = select_from_tree(
            tree, program, dc_trig, PARAMS, SelectionConstraints()
        )
        assert selection.iterations < 16

    def test_corrected_total_positive(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        selection = select_from_tree(
            tree, program, dc_trig, PARAMS, SelectionConstraints()
        )
        # Each candidate's advantage net of its overlap with those
        # before it: the selection's value with every pairwise
        # correction applied once.
        total = sum(
            _adjusted_advantage(candidate, selection.selected[:index])
            for index, candidate in enumerate(selection.selected)
        )
        assert total > 0

    def test_tight_length_no_selection_when_useless(self, pharmacy_setup):
        """With a 1-instruction limit, no candidate can tolerate latency,
        so nothing should be selected."""
        program, tree, dc_trig = pharmacy_setup
        selection = select_from_tree(
            tree,
            program,
            dc_trig,
            PARAMS,
            SelectionConstraints(max_pthread_length=1, optimize=False),
        )
        assert selection.selected == []

    def test_higher_latency_selects_longer_pthreads(self, pharmacy_setup):
        program, tree, dc_trig = pharmacy_setup
        short = select_from_tree(
            tree, program, dc_trig, PARAMS.with_mem_latency(20),
            SelectionConstraints(),
        )
        long = select_from_tree(
            tree, program, dc_trig, PARAMS.with_mem_latency(140),
            SelectionConstraints(),
        )
        if short.selected and long.selected:
            avg_short = sum(c.node.depth for c in short.selected) / len(
                short.selected
            )
            avg_long = sum(c.node.depth for c in long.selected) / len(
                long.selected
            )
            assert avg_long >= avg_short
