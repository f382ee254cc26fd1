"""Test-only reference: the original timed-hierarchy access paths.

This is the formulation of :class:`repro.memory.hierarchy.TimedHierarchy`,
:class:`repro.memory.bus.Bus` and :class:`repro.memory.mshr.MshrFile`
from before the hot path was flattened: every line address goes
through ``_line2``, every L2 hit through ``_l2_hit_latency``,
every bus duration through ``transfer_cycles``, ``_fetch_line`` refills
the L2 line its caller's ``access`` already allocated, and the MSHR
file rebuilds its expiry list over every entry on each lookup and
allocation.  It is slower than the library and exists only so the tests
can check the fast paths against it.  Tag state and LRU order come from
the library :class:`~repro.memory.cache.Cache`, the one implementation
of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.memory.cache import Cache
from repro.memory.hierarchy import HierarchyConfig


class ReferenceBus:
    """The original slot-arbitrated bus."""

    def __init__(self, name: str, width_bytes: int, cycles_per_beat: int = 1) -> None:
        self.name = name
        self.width_bytes = width_bytes
        self.cycles_per_beat = cycles_per_beat
        self._slots: Dict[int, Set[int]] = {}
        self.transfers = 0
        self.busy_cycles = 0
        self.wait_cycles = 0

    def transfer_cycles(self, num_bytes: int) -> int:
        beats = -(-num_bytes // self.width_bytes)
        return beats * self.cycles_per_beat

    def request(self, now: int, num_bytes: int) -> int:
        duration = self.transfer_cycles(num_bytes)
        slots = self._slots.setdefault(duration, set())
        index = max(now, 0) // duration
        while index in slots:
            index += 1
        slots.add(index)
        start = max(now, index * duration)
        self.transfers += 1
        self.busy_cycles += duration
        self.wait_cycles += start - now
        return start + duration


class ReferenceMshrFile:
    """The original MSHR file: expiry rebuilds a list every call."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._outstanding: Dict[int, int] = {}
        self.allocations = 0
        self.merges = 0
        self.full_stalls = 0
        self.occupancy_samples: Dict[int, int] = {}

    def _expire(self, now: int) -> None:
        if self._outstanding:
            done = [line for line, t in self._outstanding.items() if t <= now]
            for line in done:
                del self._outstanding[line]

    def lookup(self, line: int, now: int) -> Optional[int]:
        self._expire(now)
        ready = self._outstanding.get(line)
        if ready is not None:
            self.merges += 1
        return ready

    def allocate(self, line: int, now: int, ready: int) -> int:
        self._expire(now)
        delay = 0
        if len(self._outstanding) >= self.capacity:
            earliest = min(self._outstanding.values())
            delay = max(0, earliest - now)
            self.full_stalls += 1
            self._expire(earliest)
            while len(self._outstanding) >= self.capacity:
                oldest = min(self._outstanding, key=self._outstanding.get)
                del self._outstanding[oldest]
        self.allocations += 1
        occupancy = len(self._outstanding) + 1
        self.occupancy_samples[occupancy] = (
            self.occupancy_samples.get(occupancy, 0) + 1
        )
        self._outstanding[line] = ready + delay
        return ready + delay

    def outstanding(self, now: int) -> int:
        self._expire(now)
        return len(self._outstanding)


@dataclass
class _PrefetchStamp:
    request_time: int
    ready_time: int


class ReferenceTimedHierarchy:
    """The original timed hierarchy, access paths only."""

    def __init__(self, config: HierarchyConfig, perfect_l2: bool = False) -> None:
        self.config = config
        self.perfect_l2 = perfect_l2
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self.mshrs = ReferenceMshrFile(config.mshr_entries)
        self.backside_bus = ReferenceBus(
            "backside", config.backside_bus_bytes, config.backside_bus_divisor
        )
        self.memory_bus = ReferenceBus(
            "memory", config.memory_bus_bytes, config.memory_bus_divisor
        )
        self._pt_lines: Dict[int, _PrefetchStamp] = {}
        self._line_ready: Dict[int, int] = {}
        self.mt_accesses = 0
        self.mt_l2_misses = 0
        self.pt_accesses = 0
        self.pt_l2_misses = 0
        self.full_covered = 0
        self.partial_covered = 0
        self.partial_covered_cycles = 0
        self.evicted_prefetches = 0

    def mt_access_fast(
        self, addr: int, now: int, is_write: bool = False
    ) -> Tuple[int, int]:
        self.mt_accesses += 1
        line2 = self._line2(addr)
        stamp = self._pt_lines.pop(line2, None)

        if self.l1.access(addr, is_write):
            complete = now + self.config.l1.hit_latency
            pending = self._line_ready.get(line2)
            if pending is not None and pending > complete:
                complete = pending
            return 1, complete

        if self.l2.access(addr, is_write):
            complete = now + self._l2_hit_latency(now)
            pending = self._line_ready.get(line2)
            if pending is not None and pending > complete:
                complete = pending
            if stamp is not None:
                if stamp.ready_time <= now:
                    self.full_covered += 1
                else:
                    self.partial_covered += 1
                    saved = max(0, now - stamp.request_time)
                    self.partial_covered_cycles += saved
                    if stamp.ready_time > complete:
                        complete = stamp.ready_time
            return 2, complete

        self.mt_l2_misses += 1
        if stamp is not None:
            self.evicted_prefetches += 1
        return 3, self._fetch_line(line2, now)

    def pt_access_fast(self, addr: int, now: int) -> Tuple[int, int]:
        self.pt_accesses += 1
        line2 = self._line2(addr)
        pending = self._line_ready.get(line2)
        if self.l1.probe(addr):
            complete = now + self.config.l1.hit_latency
            if pending is not None and pending > complete:
                complete = pending
            return 1, complete
        if self.l2.access(addr, is_write=False):
            complete = now + self._l2_hit_latency(now)
            if pending is not None and pending > complete:
                complete = pending
            return 2, complete
        self.pt_l2_misses += 1
        complete = self._fetch_line(line2, now)
        self._pt_lines[line2] = _PrefetchStamp(request_time=now, ready_time=complete)
        return 3, complete

    def phantom_access_fast(self, addr: int, now: int) -> Tuple[int, int]:
        if self.l1.probe(addr):
            level = 1
            complete = now + self.config.l1.hit_latency
        elif self.l2.probe(addr):
            level = 2
            complete = now + self.config.l2.hit_latency
        else:
            return 3, now + self.config.mem_latency
        pending = self._line_ready.get(self._line2(addr))
        if pending is not None and pending > complete:
            complete = pending
        return level, complete

    def _line2(self, addr: int) -> int:
        """Aligned L2 line address containing byte ``addr``."""
        return addr - addr % self.config.l2.line_bytes

    def _l2_hit_latency(self, now: int) -> int:
        done = self.backside_bus.request(
            now + self.config.l2.hit_latency, self.config.l1.line_bytes
        )
        return done - now

    def _fetch_line(self, line2: int, now: int) -> int:
        if self.perfect_l2:
            self.l2.fill(line2)
            return now + self.config.l2.hit_latency
        merged = self.mshrs.lookup(line2, now)
        if merged is not None:
            return merged
        bus_done = self.memory_bus.request(
            now + self.config.mem_latency, self.config.l2.line_bytes
        )
        ready = self.mshrs.allocate(line2, now, bus_done)
        self.l2.fill(line2)
        self._line_ready[line2] = ready
        if len(self._line_ready) > 8192:
            self._line_ready = {
                line: t for line, t in self._line_ready.items() if t > now
            }
        return ready

    def unclaimed_prefetches(self) -> int:
        return len(self._pt_lines)
