"""Miss status holding registers (MSHRs).

MSHRs bound the number of simultaneously outstanding cache misses and
merge requests to a line that is already in flight — both effects the
paper's timing simulator models (32 simultaneously outstanding misses,
with p-thread and main-thread requests to the same line merging).

Time is explicit: callers pass the current cycle and receive ready
times; there is no internal clock.
"""

from __future__ import annotations

from typing import Dict, Optional

_IDLE = float("inf")  # ``_earliest`` with nothing in flight


class MshrFile:
    """A finite set of outstanding line misses.

    Args:
        capacity: maximum simultaneously outstanding misses.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        self._outstanding: Dict[int, int] = {}  # line addr -> ready time
        # A lower bound on every ready time in flight, exact after each
        # expiry scan: while ``now`` is below it nothing can expire, so
        # lookups and allocations skip the scan over every entry.
        self._earliest: float = _IDLE
        # statistics
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        # Occupancy (entries in flight, including the new one) sampled
        # at each allocation: occupancy -> count.  Allocations happen
        # only on L2 misses, so this costs one dict update per miss and
        # backs the memory.l2.mshr_occupancy histogram.
        self.occupancy_samples: Dict[int, int] = {}

    def _expire(self, now: int) -> None:
        if now < self._earliest:
            return
        outstanding = self._outstanding
        for line in [line for line, t in outstanding.items() if t <= now]:
            del outstanding[line]
        self._earliest = min(outstanding.values()) if outstanding else _IDLE

    def lookup(self, line: int, now: int) -> Optional[int]:
        """If ``line`` is already in flight at ``now``, return its ready
        time (a merge); otherwise ``None``."""
        self._expire(now)
        ready = self._outstanding.get(line)
        if ready is not None:
            self.merges += 1
        return ready

    def allocate(self, line: int, now: int, ready: int) -> int:
        """Allocate an entry for ``line`` completing at ``ready``.

        If all MSHRs are busy the request is delayed until the earliest
        outstanding miss completes; the (possibly pushed-back) ready
        time is returned.
        """
        self._expire(now)
        delay = 0
        if len(self._outstanding) >= self.capacity:
            earliest = min(self._outstanding.values())
            delay = max(0, earliest - now)
            self.full_stalls += 1
            self._expire(earliest)
            # Guard against pathological configs: if still full, drop the
            # oldest entry (it is complete from the requester's view).
            while len(self._outstanding) >= self.capacity:
                oldest = min(self._outstanding, key=self._outstanding.get)
                del self._outstanding[oldest]
        self.allocations += 1
        occupancy = len(self._outstanding) + 1
        self.occupancy_samples[occupancy] = (
            self.occupancy_samples.get(occupancy, 0) + 1
        )
        ready += delay
        self._outstanding[line] = ready
        if ready < self._earliest:
            self._earliest = ready
        return ready

    def outstanding(self, now: int) -> int:
        """Number of misses in flight at ``now``."""
        self._expire(now)
        return len(self._outstanding)

    def reset(self) -> None:
        self._outstanding.clear()
        self._earliest = _IDLE
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        self.occupancy_samples.clear()
