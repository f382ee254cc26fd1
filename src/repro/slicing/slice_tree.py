"""The slice tree: the paper's compact space of candidate p-threads.

A :class:`SliceTree` is built per static problem load.  The load is the
root; each dynamic miss contributes its backward slice as a root-to-leaf
path.  Paths that share a suffix of the computation (in the paper's
Figure 3, the instructions between the load and the control divergence)
share tree nodes, which is exactly how the tree represents p-thread
*overlap*:

* every node is a candidate static p-thread — trigger = the node's
  instruction, body = the path from just below the node up to the root;
* a node's ``miss_visits`` is the p-thread's ``DCpt-cm`` (how many
  dynamic misses that candidate pre-executes), and the invariant
  ``DCpt-cm(parent) == sum(DCpt-cm(children))`` holds by construction
  for interior nodes whose every continuation stayed within slicing
  scope;
* parent/child (direct or transitive) is the *only* overlap relation.

Each node is annotated with ``DISTpl`` — the average distance in
dynamic main-thread instructions between the node's instance and the
root load instance — from which any candidate's main-thread
``DISTtrig`` values are recovered by subtraction, exactly as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine.trace import Trace
from repro.isa.program import Program
from repro.slicing.slicer import DynamicSlice, Slicer


@dataclass
class SliceNode:
    """One node of a slice tree.

    Attributes:
        pc: static PC of the instruction at this node.
        depth: path distance from the root (root is 0).
        parent: parent node (``None`` at the root).
        children: child nodes keyed by static PC.
        visits: dynamic slices whose path passes through this node;
            since trees are built from miss slices only, this is the
            candidate's ``DCpt-cm``.
        dist_sum: sum over visits of (root dynamic index − node dynamic
            index); ``dist_sum / visits`` is ``DISTpl``.
        dep_depths: depths (toward the root, i.e. smaller numbers) of
            this node's producers *within the slice*, recorded from the
            first dynamic slice that created the node.  Producers
            outside the slice are seed live-ins and are not listed.
        truncated: number of slices that *ended* at this node.
            :meth:`SliceTree.insert` counts every slice end, whatever
            stopped the slice: the scope window, the length limit, or
            producers that are all live-ins or already in the slice.
    """

    pc: int
    depth: int
    parent: Optional["SliceNode"] = None
    children: Dict[int, "SliceNode"] = field(default_factory=dict)
    visits: int = 0
    dist_sum: int = 0
    dep_depths: Tuple[int, ...] = ()
    truncated: int = 0

    @property
    def dist_pl(self) -> float:
        """Average dynamic distance from this node to the root load."""
        if not self.visits:
            return 0.0
        return self.dist_sum / self.visits

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def path_to_root(self) -> List["SliceNode"]:
        """Nodes from this node up to (and including) the root."""
        path: List[SliceNode] = []
        node: Optional[SliceNode] = self
        while node is not None:
            path.append(node)
            node = node.parent
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SliceNode(pc={self.pc}, depth={self.depth}, "
            f"visits={self.visits}, dist_pl={self.dist_pl:.1f})"
        )


class SliceTree:
    """Slice tree for one static problem load.

    Args:
        load_pc: static PC of the problem load at the root.
    """

    def __init__(self, load_pc: int) -> None:
        self.load_pc = load_pc
        self.root = SliceNode(pc=load_pc, depth=0)
        self.slices_inserted = 0

    def insert(self, dynamic_slice: DynamicSlice, trace: Trace) -> None:
        """Insert one dynamic miss slice as a root-to-leaf path.

        Static PCs are read through a zero-copy ``memoryview`` of the
        trace's ``pc`` column, which yields plain ``int``s: a numpy
        integer would key ``children`` and fill ``SliceNode.pc`` with a
        value that pickles differently.
        """
        pcs = memoryview(trace.pc)
        indices = dynamic_slice.indices
        root_index = indices[0]
        if pcs[root_index] != self.load_pc:
            raise ValueError(
                f"slice root pc {pcs[root_index]} does not match tree "
                f"load pc {self.load_pc}"
            )
        self.slices_inserted += 1
        dep_positions = dynamic_slice.dep_positions
        node = self.root
        node.visits += 1
        for position, dyn_index in enumerate(indices[1:], 1):
            pc = pcs[dyn_index]
            child = node.children.get(pc)
            if child is None:
                child = SliceNode(
                    pc=pc,
                    depth=position,
                    parent=node,
                    dep_depths=dep_positions[position],
                )
                node.children[pc] = child
            child.visits += 1
            child.dist_sum += root_index - dyn_index
            node = child
        node.truncated += 1

    def nodes(self) -> Iterator[SliceNode]:
        """All nodes in pre-order (root first)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def leaves(self) -> Iterator[SliceNode]:
        """All leaf nodes."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def num_nodes(self) -> int:
        return sum(1 for _ in self.nodes())

    def max_depth(self) -> int:
        return max(node.depth for node in self.nodes())

    def total_misses(self) -> int:
        """Dynamic misses represented by this tree."""
        return self.root.visits

    def check_invariants(self) -> None:
        """Verify the parent/child DCpt-cm invariant.

        For every interior node, visits must equal the sum of its
        children's visits plus the slices that ended at the node itself
        (``truncated``).  Raises ``AssertionError`` on violation — used
        heavily in tests.
        """
        for node in self.nodes():
            child_sum = sum(child.visits for child in node.children.values())
            if node.visits != child_sum + node.truncated:
                raise AssertionError(
                    f"slice tree invariant violated at pc {node.pc} "
                    f"(depth {node.depth}): visits={node.visits}, "
                    f"children={child_sum}, truncated={node.truncated}"
                )

    def render(self, program: Optional[Program] = None, max_depth: int = 12) -> str:
        """ASCII rendering of the tree (for examples and debugging)."""
        lines: List[str] = []

        def visit(node: SliceNode, indent: int) -> None:
            if node.depth > max_depth:
                return
            text = f"pc#{node.pc:04d}"
            if program is not None:
                text = f"#{node.pc:02d}: {program[node.pc]}"
            lines.append(
                f"{'  ' * indent}{text}  "
                f"[DCpt-cm={node.visits}, DISTpl={node.dist_pl:.1f}]"
            )
            for child in sorted(node.children.values(), key=lambda c: c.pc):
                visit(child, indent + 1)

        visit(self.root, 0)
        return "\n".join(lines)


def build_slice_trees(
    trace: Trace,
    scope: int = 1024,
    max_length: int = 64,
    miss_level: int = 3,
    start: int = 0,
    end: Optional[int] = None,
) -> Dict[int, SliceTree]:
    """Build slice trees for every static load with misses in a trace.

    This is the paper's "functional cache simulator ... constructs
    backward slices of all dynamic L2 misses and collects them into
    slice trees" step.

    Args:
        trace: the dynamic trace.
        scope: slicing scope (dynamic instructions).
        max_length: maximum slice (tree) depth retained.
        miss_level: minimum :class:`~repro.memory.hierarchy.MemoryLevel`
            that counts as a problem miss (3 = served from memory, i.e.
            an L2 miss).
        start / end: restrict to dynamic indices in ``[start, end)``
            (used by the selection-granularity experiments).

    Returns:
        Mapping from static load PC to its slice tree.
    """
    return build_slice_trees_for_roots(
        trace,
        trace.miss_indices(miss_level),
        scope=scope,
        max_length=max_length,
        start=start,
        end=end,
    )


def build_slice_trees_for_roots(
    trace: Trace,
    roots,
    scope: int = 1024,
    max_length: int = 64,
    start: int = 0,
    end: Optional[int] = None,
) -> Dict[int, SliceTree]:
    """Build slice trees for arbitrary dynamic root instances.

    The general form of :func:`build_slice_trees`: roots need not be
    loads.  Branch pre-execution uses it with the dynamic indices of
    *mispredicted branches* as roots (the paper's footnote 1: "all of
    our methods do apply in that scenario").
    """
    slicer = Slicer(trace, scope=scope, max_length=max_length)
    pcs = memoryview(trace.pc)
    trees: Dict[int, SliceTree] = {}
    stop = len(trace) if end is None else min(end, len(trace))
    for root in roots:
        root = int(root)
        if root < start or root >= stop:
            continue
        root_pc = pcs[root]
        tree = trees.get(root_pc)
        if tree is None:
            tree = SliceTree(root_pc)
            trees[root_pc] = tree
        tree.insert(slicer.slice_at(root), trace)
    return trees
