"""Dynamic backward slicing of cache-miss computations.

Given a dynamic trace and the index of a problem-load instance, the
slicer computes the **backward data-dependence slice** of the load: the
chain of dynamic instructions that produced the load's address (and,
through memory, the values feeding that address), restricted to a
bounded *slicing scope* — the window of dynamic instructions examined
before the miss (the paper's default is 1024).

Register dependences are followed through ``dep1``/``dep2`` edges, and
memory dependences through ``memdep`` edges (a load sliced into the
body pulls in the store that produced its value, which is what later
enables store-load pair elimination).  Branches never appear: p-threads
are control-less and slices carry data dependences only.

The slice is returned as dynamic indices in **descending** order.  The
paper flattens the dependence DAG into this linear order to form the
candidate chain: the p-thread triggered at slice position *k* has a
body consisting of every slice instruction younger than position *k* —
any producer older than the trigger has already executed in the main
thread by launch time and becomes a seed live-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Tuple

from repro.engine.trace import Trace


@dataclass(frozen=True)
class DynamicSlice:
    """A backward slice of one dynamic problem-load instance.

    Attributes:
        root: dynamic index of the problem load.
        indices: slice member dynamic indices, descending (root first).
        dep_positions: for each slice position, the positions (into
            ``indices``) of its producers that are inside the slice.
            Producers outside the scope window are live-ins and do not
            appear.
    """

    root: int
    indices: Tuple[int, ...]
    dep_positions: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.indices)


def check_bounds(scope: int, max_length: int) -> None:
    """Reject a slicing scope or slice length below 1."""
    if scope < 1:
        raise ValueError("slicing scope must be >= 1")
    if max_length < 1:
        raise ValueError("max slice length must be >= 1")


class Slicer:
    """Backward slicer over one trace.

    The edge columns are read through zero-copy ``memoryview``s taken
    once, at construction: indexing one yields a plain ``int``, with no
    numpy scalar to box and convert per edge, and no copy of the
    columns.  A trace is immutable once built, so the views stay valid
    for the slicer's life.

    Args:
        trace: the dynamic trace to slice.
        scope: slicing scope in dynamic instructions — only producers
            within ``scope`` instructions before the root are followed.
        max_length: stop growing the slice beyond this many
            instructions (the tree only needs candidates up to the
            maximum p-thread length, plus slack for optimization).
    """

    def __init__(self, trace: Trace, scope: int = 1024, max_length: int = 64) -> None:
        check_bounds(scope, max_length)
        self.trace = trace
        self.scope = scope
        self.max_length = max_length
        self._dep1 = memoryview(trace.dep1)
        self._dep2 = memoryview(trace.dep2)
        self._memdep = memoryview(trace.memdep)
        # Debug-mode post-pass switch, read once per slicer (lazy
        # import: repro.analysis imports us).
        from repro.analysis.report import verification_enabled

        self._verify = verification_enabled()

    def members(self, root: int) -> List[int]:
        """Dynamic indices of the slice of ``root``, descending (root first)."""
        dep1 = self._dep1
        dep2 = self._dep2
        memdep = self._memdep
        if not 0 <= root < len(dep1):
            raise IndexError(f"root index out of range: {root}")
        # Producers are followed while inside the scope window; -1 (a
        # live-in, or memdep of anything but a store-forwarded load)
        # never is.
        floor = max(root - self.scope, -1)
        limit = self.max_length + 1

        # Grow the slice in descending dynamic order: the frontier is a
        # max-heap of pending producers, stored negated.  ``seen`` holds
        # members and frontier entries, so each index enters the
        # frontier once.  The three edges are unrolled: this loop runs
        # once per slice member.
        members: List[int] = [root]
        seen = {root}
        frontier: List[int] = []
        idx = root
        while True:
            producer = dep1[idx]
            if producer > floor and producer not in seen:
                seen.add(producer)
                heappush(frontier, -producer)
            producer = dep2[idx]
            if producer > floor and producer not in seen:
                seen.add(producer)
                heappush(frontier, -producer)
            producer = memdep[idx]
            if producer > floor and producer not in seen:
                seen.add(producer)
                heappush(frontier, -producer)
            if not frontier or len(members) >= limit:
                break
            idx = -heappop(frontier)
            members.append(idx)
        return members

    def slice_at(self, root: int) -> DynamicSlice:
        """Compute the backward slice of the dynamic load at ``root``."""
        members = self.members(root)
        dep1 = self._dep1
        dep2 = self._dep2
        memdep = self._memdep

        # A producer outside the slice maps to the member's own position,
        # which is then dropped along with any self-dependence.
        position = dict(zip(members, range(len(members)))).get
        deps: List[Tuple[int, ...]] = []
        for pos, idx in enumerate(members):
            found = {
                position(dep1[idx], pos),
                position(dep2[idx], pos),
                position(memdep[idx], pos),
            }
            found.discard(pos)
            deps.append(tuple(sorted(found)))
        result = DynamicSlice(
            root=root,
            indices=tuple(members),
            dep_positions=tuple(deps),
        )
        if self._verify:
            from repro.analysis.report import assert_clean
            from repro.analysis.verifier import verify_slice

            assert_clean(verify_slice(result), f"slice_at(root={root})")
        return result
