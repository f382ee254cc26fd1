"""The slicer and tree builder agree with the reference formulation.

:mod:`tests.slicing.reference_slicer` keeps the original slicer (a
``max(frontier)`` loop over numpy scalars) and tree insertion.  The
library grows slices from a heap and reads the trace through
``memoryview``s; these tests check that both give the same slices and
the same slice trees on L2-miss roots of every bundled program and of
generated fuzz programs.  Slices and trees are pickled into artifact
caches, so the tests also check that every index and PC is a plain
``int``: a numpy integer compares equal but pickles differently.
"""

from __future__ import annotations

import pytest

from repro.engine.functional import run_program
from repro.fuzz import generate
from repro.slicing.slice_tree import SliceTree, build_slice_trees_for_roots
from repro.slicing.slicer import DynamicSlice, Slicer
from repro.workloads.suite import SUITE, build
from tests.slicing.reference_slicer import reference_insert, reference_slice_at

PROGRAMS = list(SUITE) + ["pharmacy"]

#: (scope, max_length): the default selection, and Figure 4's narrowest
#: scope.  ``max_length`` is the selector's tree depth for each.
SETTINGS = ((1024, 64), (256, 48))

#: L2-miss roots sampled per bundled program.
ROOTS_PER_PROGRAM = 300


def assert_plain_ints(dynamic_slice: DynamicSlice) -> None:
    assert type(dynamic_slice.root) is int
    assert all(type(idx) is int for idx in dynamic_slice.indices)
    for positions in dynamic_slice.dep_positions:
        assert all(type(pos) is int for pos in positions)


def assert_same_tree(got: SliceTree, want: SliceTree) -> None:
    assert got.load_pc == want.load_pc
    assert got.slices_inserted == want.slices_inserted
    pending = [(got.root, want.root)]
    while pending:
        node, expected = pending.pop()
        assert type(node.pc) is int
        assert (
            node.pc,
            node.depth,
            node.visits,
            node.dist_sum,
            node.dep_depths,
            node.truncated,
        ) == (
            expected.pc,
            expected.depth,
            expected.visits,
            expected.dist_sum,
            expected.dep_depths,
            expected.truncated,
        )
        # Same children in the same insertion order: pickles keep it.
        assert list(node.children) == list(expected.children)
        pending.extend(zip(node.children.values(), expected.children.values()))


def check_against_reference(trace, roots, scope: int, max_length: int) -> None:
    slicer = Slicer(trace, scope=scope, max_length=max_length)
    reference_trees = {}
    for root in roots:
        want = reference_slice_at(trace, root, scope, max_length)
        got = slicer.slice_at(root)
        assert got == want, f"root {root}"
        assert_plain_ints(got)
        pc = int(trace.pc[root])
        tree = reference_trees.get(pc)
        if tree is None:
            tree = reference_trees[pc] = SliceTree(pc)
        reference_insert(tree, want, trace)

    trees = build_slice_trees_for_roots(
        trace, roots, scope=scope, max_length=max_length
    )
    assert list(trees) == list(reference_trees)
    for pc, tree in trees.items():
        assert type(pc) is int
        assert_same_tree(tree, reference_trees[pc])


@pytest.mark.parametrize("name", PROGRAMS)
def test_bundled_program_slices_match_reference(name):
    workload = build(name)
    trace = run_program(workload.program, workload.hierarchy).trace
    trace.trim()
    roots = trace.miss_indices(3)[:ROOTS_PER_PROGRAM].tolist()
    assert roots
    for scope, max_length in SETTINGS:
        check_against_reference(trace, roots, scope, max_length)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_program_slices_match_reference(seed):
    workload = generate(seed)
    trace = run_program(workload.program, workload.hierarchy).trace
    roots = trace.miss_indices(3).tolist()
    # A tiny scope and length exercise both cut-offs on every slice.
    for scope, max_length in SETTINGS + ((16, 8),):
        check_against_reference(trace, roots, scope, max_length)
