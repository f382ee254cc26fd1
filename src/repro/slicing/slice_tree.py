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

import threading
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.engine.trace import Trace
from repro.isa.program import Program
from repro.obs import get_tracer
from repro.slicing.slicer import Slicer, check_bounds


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
        truncated: number of slices that *ended* at this node,
            whatever stopped the slice: the scope window, the length
            limit, or producers that are all live-ins or already in the
            slice.
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


def _first_at_or_below(values: Sequence[int], lo: int, hi: int, bound: int) -> int:
    """First index in ``[lo, hi)`` whose value is ``<= bound``, or ``hi``.

    ``values`` must descend over ``[lo, hi)``, as a slice's members do.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if values[mid] <= bound:
            hi = mid
        else:
            lo = mid + 1
    return lo


#: Slices cut per numpy pass of :meth:`SliceTable.trees`.  A pass holds
#: a few 8-byte temporaries per member of its slices, so this bounds
#: them at about 130 KiB each at depth 64.
_CUT_CHUNK = 256


class SliceTable:
    """Every root's slice at one (scope, depth), packed flat and grouped
    by path.

    Root ``roots[k]``'s slice is ``members[offsets[k]:offsets[k + 1]]``,
    in the descending order :meth:`Slicer.members` grows it.  Both of
    the slicer's cut-offs remove a suffix, so the slice at any scope and
    depth no wider than the table's is a prefix of the stored one, and
    :meth:`trees` derives the narrower trees exactly.

    Slices whose members have the same static PCs follow one root-to-leaf
    *path* of the slice tree, so :meth:`trees` walks each path once.
    Overlapping miss computations share paths: gap's 9,620 slices at
    (1024, 64) follow 104.  Slice ``k`` follows path ``g = path_of[k]``,
    whose PCs are ``path_pcs[path_base[g]:path_base[g + 1]]``; an index
    into ``path_pcs`` is a *slot*, one per position of each path.

    Members are 4-byte ``array('i')`` entries, roots and offsets 8-byte
    ``array('q')`` ones, path ids and path PCs 4-byte ones: no
    per-member Python object is kept.  The table holds no reference to
    its trace, so it can live in a weak map keyed on the trace.

    Attributes:
        scope / depth: the slicer's scope and ``max_length``.
        roots / offsets / members: the packed slices.
        num_paths / path_of / path_pcs / path_base: the paths.
    """

    def __init__(self, trace: Trace, roots: array, scope: int, depth: int) -> None:
        slicer = Slicer(trace, scope=scope, max_length=depth)
        members = array("i")
        offsets = array("q", [0])
        grow = slicer.members
        for root in roots:
            members.extend(grow(root))
            offsets.append(len(members))
        self.scope = scope
        self.depth = depth
        self.roots = roots
        self.offsets = offsets
        self.members = members

        # Group the slices by their members' PCs.
        trace_pcs = trace.pc
        slices = np.frombuffer(members, dtype=np.int32)
        ids: Dict[bytes, int] = {}
        distinct: List[np.ndarray] = []
        self.path_of = array("i")
        for k in range(len(roots)):
            pcs = trace_pcs[slices[offsets[k]:offsets[k + 1]]]
            path = ids.setdefault(pcs.tobytes(), len(ids))
            if path == len(distinct):
                distinct.append(pcs)
            self.path_of.append(path)
        self.num_paths = len(distinct)
        self.path_pcs = np.concatenate(distinct or [trace_pcs[:0]])
        self.path_base = np.cumsum([0] + [len(pcs) for pcs in distinct])

        # Debug-mode post-pass: every stored slice passes SL001 (lazy
        # import: repro.analysis imports us).
        from repro.analysis.report import verification_enabled

        if verification_enabled():
            for k, root in enumerate(roots):
                stored = tuple(members[offsets[k]:offsets[k + 1]])
                if slicer.slice_at(root).indices != stored:
                    raise AssertionError(
                        f"slice table: stored slice of root {root} differs "
                        "from slice_at"
                    )

    def trees(
        self,
        trace: Trace,
        scope: int,
        depth: int,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> Dict[int, SliceTree]:
        """Slice trees of ``roots[lo:hi]`` at ``scope`` and ``depth``.

        Neither may exceed the table's.  :meth:`_cut` cuts the slices and
        counts, per path position, what the cut slices add there.  Then
        each path is walked once, in stretches taken in root order: a
        node is created by the first slice in root order whose cut
        reaches it, with ``dep_depths`` from that slice's cut, and takes
        its path's counts.  So nodes, ``children`` order and tree order
        are what inserting each cut slice in root order would give.
        """
        if hi is None:
            hi = len(self.roots)
        counts, stretches = self._cut(scope, depth, lo, hi)
        members = memoryview(self.members)
        offsets = self.offsets
        path_pcs = self.path_pcs
        path_base = self.path_base.tolist()
        edges = (
            memoryview(trace.dep1),
            memoryview(trace.dep2),
            memoryview(trace.memdep),
        )
        trees: Dict[int, SliceTree] = {}
        # The deepest node walked so far on each path.
        reached: Dict[int, SliceNode] = {}
        for k, path, begin, cut in stretches:
            # ``tolist`` gives plain ints: a numpy integer would key
            # ``children`` and fill ``SliceNode.pc`` with a value that
            # pickles differently.
            slots = slice(path_base[path] + begin, path_base[path] + cut)
            stretch = zip(
                range(begin, cut),
                path_pcs[slots].tolist(),
                counts[slots].tolist(),
            )
            if begin == 0:
                _, root_pc, (visits, _, ends) = next(stretch)
                tree = trees.get(root_pc)
                if tree is None:
                    tree = trees[root_pc] = SliceTree(root_pc)
                tree.slices_inserted += visits
                node = tree.root
                node.visits += visits
                node.truncated += ends
            else:
                node = reached[path]
            base = offsets[k]
            for position, pc, (visits, dist_sum, ends) in stretch:
                child = node.children.get(pc)
                if child is None:
                    child = SliceNode(
                        pc=pc,
                        depth=position,
                        parent=node,
                        dep_depths=_dep_depths(
                            members, base, base + cut, position, edges
                        ),
                    )
                    node.children[pc] = child
                child.visits += visits
                child.dist_sum += dist_sum
                child.truncated += ends
                node = child
            reached[path] = node

        from repro.analysis.report import verification_enabled

        if verification_enabled():
            for tree in trees.values():
                tree.check_invariants()
        return trees

    def _cut(
        self, scope: int, depth: int, lo: int, hi: int
    ) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
        """Cut the slices of ``roots[lo:hi]`` at ``scope`` and ``depth``.

        Slice ``k`` keeps its members up to the first ``<= root - scope``
        and at most ``depth + 1``: its *cut*.  Row ``s`` of the returned
        counts holds how many cut slices reach slot ``s``, the sum of
        their ``root - member`` distances there and how many end there.
        Also returned are the stretches ``(k, g, begin, cut)``, in root
        order: slice ``k`` is the first whose cut reaches positions
        ``[begin, cut)`` of its path ``g``.  Distances are computed here,
        per chunk of slices, and never stored.
        """
        members = np.frombuffer(self.members, dtype=np.int32)
        offsets = np.frombuffer(self.offsets, dtype=np.int64)
        roots = np.frombuffer(self.roots, dtype=np.int64)
        path_of = np.frombuffer(self.path_of, dtype=np.int32)
        size = len(self.path_pcs)
        counts = np.zeros((size, 3), dtype=np.int64)
        reached = [0] * self.num_paths
        stretches: List[Tuple[int, int, int, int]] = []
        for a in range(lo, hi, _CUT_CHUNK):
            b = min(a + _CUT_CHUNK, hi)
            begin = offsets[a:b]
            lengths = offsets[a + 1:b + 1] - begin
            first, stop = offsets[a], offsets[b]
            dist = np.repeat(roots[a:b], lengths) - members[first:stop]
            position = np.arange(first, stop) - np.repeat(begin, lengths)
            kept = (dist < scope) & (position <= depth)
            # Distances ascend along a slice, so what is kept is a prefix.
            cuts = np.add.reduceat(kept, begin - first)
            bases = self.path_base[path_of[a:b]]
            at = (np.repeat(bases, lengths) + position)[kept]
            counts[:, 0] += np.bincount(at, minlength=size)
            np.add.at(counts[:, 1], at, dist[kept])
            counts[:, 2] += np.bincount(bases + cuts - 1, minlength=size)
            for k, path, cut in zip(
                range(a, b), path_of[a:b].tolist(), cuts.tolist()
            ):
                if cut > reached[path]:
                    stretches.append((k, path, reached[path], cut))
                    reached[path] = cut
        return counts, stretches


def _dep_depths(
    members: memoryview,
    base: int,
    end: int,
    position: int,
    edges: Tuple[memoryview, ...],
) -> Tuple[int, ...]:
    """Positions of a member's producers within the cut slice.

    The node is created by the slice ``members[base:end]``, so only
    producers inside that cut prefix count; the rest are live-ins.
    """
    idx = members[base + position]
    found = set()
    for column in edges:
        producer = column[idx]
        at = _first_at_or_below(members, base, end, producer)
        if at < end and members[at] == producer:
            found.add(at - base)
    found.discard(position)
    return tuple(sorted(found))


#: One slice table per trace.  Weak keys: a table lives as long as its
#: trace, and no pickled class gains a field.
_TABLES: "WeakKeyDictionary[Trace, SliceTable]" = WeakKeyDictionary()
_TABLES_LOCK = threading.Lock()


def _slice_table(trace: Trace, scope: int, depth: int) -> SliceTable:
    """The trace's table of L2-miss slices, widened to cover the request.

    A table is never replaced by a narrower one: a request wider than
    the stored table builds one at the widest scope and depth asked of
    the trace so far.  Look-up and store hold the lock; the build runs
    outside it, so two threads may both build, and each derives from
    its own table.
    """
    with _TABLES_LOCK:
        table = _TABLES.get(trace)
    if table is not None:
        if table.scope >= scope and table.depth >= depth:
            return table
        scope = max(scope, table.scope)
        depth = max(depth, table.depth)
    with get_tracer().span("slice_table", scope=scope, depth=depth) as span:
        # L2 misses: loads served from memory (MemoryLevel.MEM).
        misses = trace.miss_indices(3)
        roots = array("q", np.ascontiguousarray(misses, dtype=np.int64).tobytes())
        table = SliceTable(trace, roots, scope, depth)
        span.meta["roots"] = len(roots)
        span.meta["members"] = len(table.members)
        span.meta["paths"] = table.num_paths
    with _TABLES_LOCK:
        current = _TABLES.get(trace)
        if current is None or (
            table.scope >= current.scope and table.depth >= current.depth
        ):
            _TABLES[trace] = table
    return table


def build_slice_trees(
    trace: Trace,
    scope: int = 1024,
    max_length: int = 64,
    start: int = 0,
    end: Optional[int] = None,
) -> Dict[int, SliceTree]:
    """Build slice trees for every static load with L2 misses in a trace.

    This is the paper's "functional cache simulator ... constructs
    backward slices of all dynamic L2 misses and collects them into
    slice trees" step.  Each miss is sliced once per trace: the trees
    are derived from the trace's :class:`SliceTable`, which is built (or
    widened) only when a request is wider than any before it.

    Args:
        trace: the dynamic trace.
        scope: slicing scope (dynamic instructions).
        max_length: maximum slice (tree) depth retained.
        start / end: restrict to dynamic indices in ``[start, end)``
            (a prefix or a window of the run).

    Returns:
        Mapping from static load PC to its slice tree.
    """
    check_bounds(scope, max_length)
    table = _slice_table(trace, scope, max_length)
    stop = len(trace) if end is None else min(end, len(trace))
    # Miss roots ascend, so a region's roots are one run of the table.
    return table.trees(
        trace,
        scope,
        max_length,
        bisect_left(table.roots, start),
        bisect_left(table.roots, stop),
    )


def build_slice_trees_for_roots(
    trace: Trace,
    roots: Iterable[int],
    scope: int = 1024,
    max_length: int = 64,
) -> Dict[int, SliceTree]:
    """Build slice trees for arbitrary dynamic root instances.

    The general form of :func:`build_slice_trees`: roots need not be
    loads, nor ascend, and the table they are sliced into is not kept.
    Branch pre-execution uses it with the dynamic indices of
    *mispredicted branches* as roots (the paper's footnote 1: "all of
    our methods do apply in that scenario").
    """
    kept = array("q", (int(root) for root in roots))
    return SliceTable(trace, kept, scope, max_length).trees(trace, scope, max_length)
