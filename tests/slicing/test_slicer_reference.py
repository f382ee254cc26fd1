"""The slicer and tree builder agree with the reference formulation.

:mod:`tests.slicing.reference_slicer` keeps the original slicer (a
``max(frontier)`` loop over numpy scalars) and tree insertion.  The
library grows slices from a heap and reads the trace through
``memoryview``s; these tests check that both give the same slices and
the same slice trees on L2-miss roots of every bundled program and of
generated fuzz programs.  Slices and trees are pickled into artifact
caches, so the tests also check that every index and PC is a plain
``int``: a numpy integer compares equal but pickles differently.

:func:`build_slice_trees` slices each trace once, into a table at the
widest scope and depth asked of it, and derives every narrower tree
from that table.  So the tests also ask for narrower configs and
regions after a wide table is built, ask narrow first and then wide,
ask from two threads at once and append to a traced trace, and check
each result against reference trees built fresh at that config.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine.functional import run_program
from repro.fuzz import generate
from repro.slicing.slice_tree import (
    SliceTree,
    build_slice_trees,
    build_slice_trees_for_roots,
)
from repro.slicing.slicer import DynamicSlice, Slicer
from repro.workloads.suite import SUITE, build
from tests.slicing.reference_slicer import reference_insert, reference_slice_at

PROGRAMS = list(SUITE) + ["pharmacy"]

#: (scope, max_length): the default selection, and Figure 4's narrowest
#: scope.  ``max_length`` is the selector's tree depth for each.
SETTINGS = ((1024, 64), (256, 48))

#: L2-miss roots sampled per bundled program.
ROOTS_PER_PROGRAM = 300

#: The table every program's trace is sliced into first, and the
#: narrower (scope, max_length) configs then derived from it.
WIDEST = (2048, 128)
DERIVED = ((1024, 64), (512, 48), (256, 48), (128, 16))


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


def assert_same_trees(got, want) -> None:
    assert list(got) == list(want)
    for pc, tree in got.items():
        assert type(pc) is int
        assert_same_tree(tree, want[pc])


def reference_slices(trace, roots, scope: int, max_length: int):
    return [
        reference_slice_at(trace, root, scope, max_length) for root in roots
    ]


def reference_trees(trace, slices):
    """Trees of ``slices``, inserted in order by the reference."""
    trees = {}
    for dynamic_slice in slices:
        pc = int(trace.pc[dynamic_slice.root])
        tree = trees.get(pc)
        if tree is None:
            tree = trees[pc] = SliceTree(pc)
        reference_insert(tree, dynamic_slice, trace)
    return trees


def check_against_reference(trace, roots, scope: int, max_length: int) -> None:
    slicer = Slicer(trace, scope=scope, max_length=max_length)
    wants = reference_slices(trace, roots, scope, max_length)
    for root, want in zip(roots, wants):
        got = slicer.slice_at(root)
        assert got == want, f"root {root}"
        assert_plain_ints(got)

    trees = build_slice_trees_for_roots(
        trace, roots, scope=scope, max_length=max_length
    )
    assert_same_trees(trees, reference_trees(trace, wants))


def regions(roots):
    """A region holding the first ``ROOTS_PER_PROGRAM`` miss roots, and
    one holding as many from the middle of the trace."""
    mid = len(roots) // 2
    first = roots[:ROOTS_PER_PROGRAM]
    middle = roots[mid:mid + ROOTS_PER_PROGRAM]
    return [(part[0], part[-1] + 1) for part in (first, middle)]


def check_derived(trace, configs) -> None:
    """Trees derived from a ``WIDEST`` table equal the reference trees."""
    roots = trace.miss_indices(3).tolist()
    build_slice_trees(trace, *WIDEST)
    for scope, max_length in configs:
        for start, end in regions(roots):
            got = build_slice_trees(
                trace, scope=scope, max_length=max_length, start=start, end=end
            )
            inside = [root for root in roots if start <= root < end]
            want = reference_slices(trace, inside, scope, max_length)
            assert_same_trees(got, reference_trees(trace, want))


@pytest.mark.parametrize("name", PROGRAMS)
def test_bundled_program_slices_match_reference(name):
    workload = build(name)
    trace = run_program(workload.program, workload.hierarchy).trace
    trace.trim()
    roots = trace.miss_indices(3)[:ROOTS_PER_PROGRAM].tolist()
    assert roots
    for scope, max_length in SETTINGS:
        check_against_reference(trace, roots, scope, max_length)
    check_derived(trace, DERIVED)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_program_slices_match_reference(seed):
    workload = generate(seed)
    trace = run_program(workload.program, workload.hierarchy).trace
    roots = trace.miss_indices(3).tolist()
    # A tiny scope and length exercise both cut-offs on every slice.
    for scope, max_length in SETTINGS + ((16, 8),):
        check_against_reference(trace, roots, scope, max_length)
    check_derived(trace, DERIVED + ((16, 8),))


def fuzz_trace(seed: int = 3):
    workload = generate(seed)
    return run_program(workload.program, workload.hierarchy).trace


def test_narrow_first_then_wide_gives_the_same_trees():
    trace = fuzz_trace()
    roots = trace.miss_indices(3).tolist()
    # Each request but the last widens the table.
    for scope, max_length in ((128, 16), (256, 48), WIDEST, (512, 48)):
        assert_same_trees(
            build_slice_trees(trace, scope=scope, max_length=max_length),
            reference_trees(
                trace, reference_slices(trace, roots, scope, max_length)
            ),
        )


def test_threads_asking_different_configs_get_the_reference_trees():
    trace = fuzz_trace()
    roots = trace.miss_indices(3).tolist()
    configs = [(16, 8), WIDEST, (256, 48), (1024, 64)]
    barrier = threading.Barrier(len(configs))
    results = {}

    def ask(config):
        barrier.wait(timeout=60)
        results[config] = build_slice_trees(
            trace, scope=config[0], max_length=config[1]
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(c,)) for c in configs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for scope, max_length in configs:
        assert_same_trees(
            results[scope, max_length],
            reference_trees(
                trace, reference_slices(trace, roots, scope, max_length)
            ),
        )


def test_record_appended_after_a_build_shows_up():
    trace = fuzz_trace()
    build_slice_trees(trace, *WIDEST)
    # Re-execute the last miss: same PC, same producers, one more root.
    last = trace.record(int(trace.miss_indices(3)[-1]))
    trace.append(
        last.pc, last.addr, last.level, last.dep1, last.dep2, last.memdep
    )
    roots = trace.miss_indices(3).tolist()
    assert roots[-1] == len(trace) - 1
    got = build_slice_trees(trace, scope=1024, max_length=64)
    want = reference_trees(trace, reference_slices(trace, roots, 1024, 64))
    assert_same_trees(got, want)
    assert got[last.pc].slices_inserted == sum(
        1 for root in roots if trace.pc[root] == last.pc
    )
