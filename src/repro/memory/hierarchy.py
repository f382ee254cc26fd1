"""Two-level cache hierarchy: functional and timed views.

Two classes share the same geometry:

* :class:`FunctionalHierarchy` classifies each access by the level it
  hits in, with no notion of time.  The trace generator uses it to tag
  every dynamic load with its miss level, which is what the slicer and
  the analytical model consume.

* :class:`TimedHierarchy` adds latency, MSHRs, bus occupancy, and the
  cache-block timestamping the paper uses to classify covered misses
  ("Miss coverage is measured by timestamping cache blocks with p-thread
  request, main thread request, and ready times").  The timing simulator
  calls it with explicit cycle numbers.

Per the paper's methodology, p-thread loads prefetch **only into the
L2** — the L1 fill path is disabled for them so that framework
validation is not perturbed by L1 effects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.memory.bus import Bus
from repro.memory.cache import Cache, CacheConfig
from repro.memory.mshr import MshrFile


class MemoryLevel(enum.IntEnum):
    """Where an access was satisfied."""

    L1 = 1
    L2 = 2
    MEM = 3


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and timing of the full memory system.

    Defaults follow the paper's configuration, scaled where noted:
    16KB/32B/2-way 2-cycle L1, 256KB/64B/4-way 6-cycle L2, 70-cycle
    memory, 32 outstanding misses, 32B busses with the memory bus at a
    quarter of the processor clock.  Workload suites shrink the caches
    (keeping ratios) so that scaled-down working sets exercise the same
    miss regimes as SPEC2000 did against the paper's caches.
    """

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D", size_bytes=16 * 1024, line_bytes=32, assoc=2, hit_latency=2
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=256 * 1024, line_bytes=64, assoc=4, hit_latency=6
        )
    )
    mem_latency: int = 70
    mshr_entries: int = 32
    backside_bus_bytes: int = 32
    backside_bus_divisor: int = 1
    memory_bus_bytes: int = 32
    memory_bus_divisor: int = 4

    def scaled(self, factor: int) -> "HierarchyConfig":
        """Return a copy with both cache capacities divided by ``factor``.

        Line sizes and associativities are preserved, so indexing
        behaviour is unchanged — only capacity shrinks.
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return HierarchyConfig(
            l1=CacheConfig(
                name=self.l1.name,
                size_bytes=self.l1.size_bytes // factor,
                line_bytes=self.l1.line_bytes,
                assoc=self.l1.assoc,
                hit_latency=self.l1.hit_latency,
            ),
            l2=CacheConfig(
                name=self.l2.name,
                size_bytes=self.l2.size_bytes // factor,
                line_bytes=self.l2.line_bytes,
                assoc=self.l2.assoc,
                hit_latency=self.l2.hit_latency,
            ),
            mem_latency=self.mem_latency,
            mshr_entries=self.mshr_entries,
            backside_bus_bytes=self.backside_bus_bytes,
            backside_bus_divisor=self.backside_bus_divisor,
            memory_bus_bytes=self.memory_bus_bytes,
            memory_bus_divisor=self.memory_bus_divisor,
        )

    def with_mem_latency(self, latency: int) -> "HierarchyConfig":
        """Copy with a different main-memory latency (Figure 8 sweeps)."""
        return HierarchyConfig(
            l1=self.l1,
            l2=self.l2,
            mem_latency=latency,
            mshr_entries=self.mshr_entries,
            backside_bus_bytes=self.backside_bus_bytes,
            backside_bus_divisor=self.backside_bus_divisor,
            memory_bus_bytes=self.memory_bus_bytes,
            memory_bus_divisor=self.memory_bus_divisor,
        )


class FunctionalHierarchy:
    """Untimed two-level hierarchy used by the trace generator."""

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)

    def access_fast(self, addr: int, is_write: bool = False) -> int:
        """Access ``addr``; returns the :class:`MemoryLevel` value (1/2/3)
        of the level that satisfied it, as a plain int.

        The trace generator calls this once per dynamic load/store, so
        it skips an enum construction per access.
        """
        if self.l1.access(addr, is_write):
            return 1
        if self.l2.access(addr, is_write):
            return 2
        return 3

    def warm(self, addr: int) -> None:
        """Install ``addr`` in both levels without counting statistics."""
        self.l1.fill(addr)
        self.l2.fill(addr)


class TimedHierarchy:
    """Two-level hierarchy with latency, MSHRs, busses and coverage.

    All methods take the current cycle explicitly; the class holds no
    clock of its own.

    The ``*_access_fast`` paths run once per simulated memory access,
    so each returns a plain ``(level, complete)`` pair of ints, calls
    every component it touches at most once (``access`` or ``probe`` per
    cache level, one ``Bus.request``) and computes line addresses and
    latencies inline from constants taken here.  A main-thread access
    classifies its coverage of a p-thread-fetched line only in the
    counters (``full_covered``, ``partial_covered``,
    ``evicted_prefetches``).
    """

    def __init__(self, config: HierarchyConfig, perfect_l2: bool = False) -> None:
        self.config = config
        #: Perfect-L2 mode: fetches from memory complete in an L2 hit
        #: time (misses are still *counted*) — the Table 1 limit study.
        self.perfect_l2 = perfect_l2
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        self.mshrs = MshrFile(config.mshr_entries)
        self.backside_bus = Bus(
            "backside", config.backside_bus_bytes, config.backside_bus_divisor
        )
        self.memory_bus = Bus(
            "memory", config.memory_bus_bytes, config.memory_bus_divisor
        )
        self._l2_line_mask = -config.l2.line_bytes
        self._l1_hit = config.l1.hit_latency
        self._l2_hit = config.l2.hit_latency
        self._mem_latency = config.mem_latency
        self._l1_line_bytes = config.l1.line_bytes
        self._l2_line_bytes = config.l2.line_bytes
        # L2 lines fetched by p-threads and not yet touched by the main
        # thread, keyed by L2 line address: (request time, ready time).
        self._pt_lines: Dict[int, Tuple[int, int]] = {}
        # Fill completion time of lines still in transit from memory.
        # Tag state is updated at request time (so residency checks
        # work), but an access to an in-flight line cannot complete
        # before the fill does — without this, back-to-back accesses to
        # one missing line would break miss serialization entirely.
        self._line_ready: Dict[int, int] = {}
        # statistics
        self.mt_accesses = 0
        self.mt_l2_misses = 0
        self.pt_accesses = 0
        self.pt_l2_misses = 0
        self.full_covered = 0
        self.partial_covered = 0
        self.partial_covered_cycles = 0
        self.evicted_prefetches = 0

    # ------------------------------------------------------------------
    # main thread
    # ------------------------------------------------------------------

    def mt_access_fast(
        self, addr: int, now: int, is_write: bool = False
    ) -> Tuple[int, int]:
        """Timed main-thread access at cycle ``now``.

        Returns the level that satisfied the access (a line a p-thread
        fetched is an L2 hit) and the cycle its data is available.
        """
        self.mt_accesses += 1
        line2 = addr & self._l2_line_mask
        stamp = self._pt_lines.pop(line2, None)

        if self.l1.access(addr, is_write):
            complete = now + self._l1_hit
            pending = self._line_ready.get(line2)
            if pending is not None and pending > complete:
                complete = pending
            return 1, complete

        if self.l2.access(addr, is_write):
            # L2 hit, timed with the backside bus.  If a p-thread
            # fetched this line, the unassisted program would have
            # missed: classify the coverage.
            complete = self.backside_bus.request(
                now + self._l2_hit, self._l1_line_bytes
            )
            pending = self._line_ready.get(line2)
            if pending is not None and pending > complete:
                complete = pending
            if stamp is not None:
                request_time, ready_time = stamp
                if ready_time <= now:
                    self.full_covered += 1
                else:
                    self.partial_covered += 1
                    if now > request_time:
                        self.partial_covered_cycles += now - request_time
                    if ready_time > complete:
                        complete = ready_time
            return 2, complete

        # L2 miss.
        self.mt_l2_misses += 1
        if stamp is not None:
            # A p-thread prefetched the line but it was evicted before
            # the main thread got to it: an early (wasted) prefetch.
            self.evicted_prefetches += 1
        return 3, self._fetch_line(line2, now)

    # ------------------------------------------------------------------
    # p-threads
    # ------------------------------------------------------------------

    def pt_access_fast(self, addr: int, now: int) -> Tuple[int, int]:
        """Timed p-thread load at cycle ``now``.

        P-thread loads read the L1 if the line happens to be resident
        (without refreshing LRU state) but fill only the L2.
        """
        self.pt_accesses += 1
        line2 = addr & self._l2_line_mask
        pending = self._line_ready.get(line2)
        if self.l1.probe(addr):
            complete = now + self._l1_hit
            if pending is not None and pending > complete:
                complete = pending
            return 1, complete
        if self.l2.access(addr, False):
            complete = self.backside_bus.request(
                now + self._l2_hit, self._l1_line_bytes
            )
            if pending is not None and pending > complete:
                complete = pending
            return 2, complete
        self.pt_l2_misses += 1
        complete = self._fetch_line(line2, now)
        # Stamp the line so the main thread's first touch classifies it.
        self._pt_lines[line2] = (now, complete)
        return 3, complete

    def phantom_access_fast(self, addr: int, now: int) -> Tuple[int, int]:
        """Latency of a load that must not disturb any state.

        Used by the overhead-only validation runs, where p-threads
        execute "but do not access the data cache (thus do not have the
        pre-execution effect)": timing reflects residency, but no fill,
        LRU update, MSHR, bus, or timestamp activity occurs.

        Like the real access paths, a hit on a line whose fill is still
        in flight cannot complete before the fill does, so the pending
        :attr:`_line_ready` time clamps the completion.  Reading that
        timestamp disturbs nothing, which is all the phantom contract
        requires.
        """
        if self.l1.probe(addr):
            level = 1
            complete = now + self._l1_hit
        elif self.l2.probe(addr):
            level = 2
            complete = now + self._l2_hit
        else:
            return 3, now + self._mem_latency
        pending = self._line_ready.get(addr & self._l2_line_mask)
        if pending is not None and pending > complete:
            complete = pending
        return level, complete

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _fetch_line(self, line2: int, now: int) -> int:
        """Fetch ``line2`` from memory into the L2; returns ready time.

        Called only right after an L2 ``access`` of this line missed,
        and that access already allocated the line at MRU — so there
        is no tag fill left to do here, only the timing.
        """
        if self.perfect_l2:
            return now + self._l2_hit
        merged = self.mshrs.lookup(line2, now)
        if merged is not None:
            return merged
        bus_done = self.memory_bus.request(
            now + self._mem_latency, self._l2_line_bytes
        )
        ready = self.mshrs.allocate(line2, now, bus_done)
        self._line_ready[line2] = ready
        if len(self._line_ready) > 8192:
            self._line_ready = {
                line: t for line, t in self._line_ready.items() if t > now
            }
        return ready

    def unclaimed_prefetches(self) -> int:
        """P-thread-fetched lines never touched by the main thread."""
        return len(self._pt_lines)

    def publish_metrics(self, registry) -> None:
        """Fold this hierarchy's counters into a metrics registry.

        Called once at the end of a timing run (see
        ``TimingSimulator._publish_metrics``), never from the access
        fast path.  Names belong to the stable catalog in
        :mod:`repro.obs.export`.
        """
        registry.counter("memory.mt.accesses").inc(self.mt_accesses)
        registry.counter("memory.mt.l2_misses").inc(self.mt_l2_misses)
        registry.counter("memory.pt.accesses").inc(self.pt_accesses)
        registry.counter("memory.pt.l2_misses").inc(self.pt_l2_misses)
        registry.counter("memory.prefetch.evicted").inc(self.evicted_prefetches)
        registry.counter("memory.prefetch.unclaimed").inc(
            self.unclaimed_prefetches()
        )
        mshrs = self.mshrs
        registry.counter("memory.l2.mshr.allocations").inc(mshrs.allocations)
        registry.counter("memory.l2.mshr.merges").inc(mshrs.merges)
        registry.counter("memory.l2.mshr.full_stalls").inc(mshrs.full_stalls)
        occupancy = registry.histogram("memory.l2.mshr_occupancy")
        for depth, count in mshrs.occupancy_samples.items():
            occupancy.observe(depth, count)
