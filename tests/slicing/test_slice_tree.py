"""Tests for the slice tree — structure, annotations, invariants."""

import pytest

from repro.engine.functional import run_program
from repro.isa import assemble
from repro.slicing.slice_tree import build_slice_trees, build_slice_trees_for_roots
from repro.workloads import pharmacy


class TestInsertion:
    def test_single_path(self):
        trace = run_program(
            assemble(
                """
                addi r1, r0, 256
                slli r2, r1, 2
                lw   r3, 0(r2)
                halt
                """
            )
        ).trace
        tree = build_slice_trees_for_roots(trace, [2], scope=10)[2]
        assert tree.total_misses() == 1
        assert tree.max_depth() == 2
        tree.check_invariants()

    def test_repeated_paths_share_nodes(self):
        source = """
            addi r1, r0, 4096
            addi r3, r0, 3
        loop:
            slli r2, r1, 0
            lw   r4, 0(r2)
            addi r1, r1, 64
            addi r3, r3, -1
            bgt  r3, r0, loop
            halt
        """
        trace = run_program(assemble(source)).trace
        load_indices = [i for i in range(len(trace)) if trace.pc[i] == 3]
        tree = build_slice_trees_for_roots(trace, load_indices, scope=100)[3]
        assert tree.total_misses() == 3
        # First-level child (the slli) is shared by all three paths.
        child = tree.root.children[2]
        assert child.visits == 3
        tree.check_invariants()


class TestPharmacyTree:
    """The tree from the paper's Figure 3, built from real execution."""

    @pytest.fixture(scope="class")
    def tree(self, pharmacy_small_run):
        trees = build_slice_trees(
            pharmacy_small_run.trace, scope=512, max_length=24
        )
        return trees[pharmacy.PROBLEM_LOAD_PC]

    def test_invariants_hold(self, tree):
        tree.check_invariants()

    def test_two_computation_arms(self, tree):
        """Depth 3 must fork into the #04-path and #06-path loads."""
        node = tree.root
        for _ in range(2):  # addi (paper #08), slli (paper #07)
            assert len(node.children) == 1
            node = next(iter(node.children.values()))
        pcs = set(node.children)
        # PCs 5 and 7 are the paper's #04 and #06 loads.
        assert pcs == {5, 7}

    def test_children_visits_sum_to_parent(self, tree):
        for node in tree.nodes():
            if node.children:
                total = sum(c.visits for c in node.children.values())
                assert total + node.truncated == node.visits

    def test_dist_pl_increases_with_depth(self, tree):
        for node in tree.nodes():
            for child in node.children.values():
                assert child.dist_pl > node.dist_pl

    def test_root_dist_pl_zero(self, tree):
        assert tree.root.dist_pl == 0.0

    def test_induction_unrolling_present(self, tree):
        """Deep nodes repeat the induction instruction (paper #11 = pc 12)."""
        induction_depths = [
            node.depth for node in tree.nodes() if node.pc == pharmacy.INDUCTION_PC
        ]
        assert len(induction_depths) >= 3

    def test_path_to_root_lengths(self, tree):
        for node in tree.nodes():
            path = node.path_to_root()
            assert len(path) == node.depth + 1
            assert path[-1] is tree.root

    def test_render_contains_annotations(self, tree, pharmacy_small):
        text = tree.render(pharmacy_small, max_depth=4)
        assert "DCpt-cm" in text
        assert "DISTpl" in text


class TestBuildSliceTrees:
    def test_one_tree_per_static_load(self, pharmacy_small_run):
        trees = build_slice_trees(pharmacy_small_run.trace)
        for load_pc, tree in trees.items():
            assert tree.load_pc == load_pc
            tree.check_invariants()

    def test_total_misses_partition(self, pharmacy_small_run):
        trace = pharmacy_small_run.trace
        trees = build_slice_trees(trace)
        total = sum(tree.total_misses() for tree in trees.values())
        assert total == len(trace.miss_indices(3))

    def test_region_restriction(self, pharmacy_small_run):
        trace = pharmacy_small_run.trace
        half = len(trace) // 2
        trees = build_slice_trees(trace, start=0, end=half)
        total = sum(tree.total_misses() for tree in trees.values())
        assert total == sum(1 for i in trace.miss_indices(3) if i < half)

    def test_bounds_checked_when_deriving(self, pharmacy_small_run):
        trace = pharmacy_small_run.trace
        build_slice_trees(trace)
        # A stored table could serve these; the bounds still apply.
        with pytest.raises(ValueError):
            build_slice_trees(trace, scope=0)
        with pytest.raises(ValueError):
            build_slice_trees(trace, max_length=0)
