"""Test-only reference: the straightforward slicer and tree builder.

This is the original formulation of :meth:`repro.slicing.Slicer.slice_at`
and :meth:`repro.slicing.SliceTree.insert`: the frontier is a plain list
searched with ``max`` and shrunk with ``list.remove``, and every edge
and static PC is read from the numpy columns by scalar index with an
``int()`` per access.  It is quadratic in slice length and several
times slower than the library, and exists only so the tests can check
the fast path against it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine.trace import Trace
from repro.slicing.slice_tree import SliceNode, SliceTree
from repro.slicing.slicer import DynamicSlice


def reference_slice_at(
    trace: Trace, root: int, scope: int = 1024, max_length: int = 64
) -> DynamicSlice:
    """The backward slice of the dynamic instruction at ``root``."""
    dep1 = trace.dep1
    dep2 = trace.dep2
    memdep = trace.memdep
    horizon = root - scope

    members: List[int] = [root]
    member_set = {root}
    frontier: List[int] = []

    def push(idx: int) -> None:
        if idx >= 0 and idx > horizon and idx not in member_set:
            member_set.add(idx)
            frontier.append(idx)

    def expand(idx: int) -> None:
        push(int(dep1[idx]))
        push(int(dep2[idx]))
        push(int(memdep[idx]))

    expand(root)
    while frontier and len(members) <= max_length:
        nxt = max(frontier)
        frontier.remove(nxt)
        members.append(nxt)
        expand(nxt)

    position = {idx: pos for pos, idx in enumerate(members)}
    deps: List[Tuple[int, ...]] = []
    for idx in members:
        producer_positions = []
        for producer in (int(dep1[idx]), int(dep2[idx]), int(memdep[idx])):
            if producer in position and producer != idx:
                producer_positions.append(position[producer])
        deps.append(tuple(sorted(set(producer_positions))))
    return DynamicSlice(
        root=root, indices=tuple(members), dep_positions=tuple(deps)
    )


def reference_insert(tree: SliceTree, dynamic_slice: DynamicSlice, trace: Trace) -> None:
    """Insert one slice into ``tree`` as a root-to-leaf path."""
    indices = dynamic_slice.indices
    tree.slices_inserted += 1
    root_index = indices[0]
    node = tree.root
    node.visits += 1
    for position in range(1, len(indices)):
        dyn_index = indices[position]
        pc = int(trace.pc[dyn_index])
        child = node.children.get(pc)
        if child is None:
            child = SliceNode(
                pc=pc,
                depth=position,
                parent=node,
                dep_depths=dynamic_slice.dep_positions[position],
            )
            node.children[pc] = child
        child.visits += 1
        child.dist_sum += root_index - dyn_index
        node = child
    node.truncated += 1

