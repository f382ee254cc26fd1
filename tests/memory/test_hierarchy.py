"""Tests for the functional and timed two-level hierarchies."""

import pytest

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import (
    FunctionalHierarchy,
    HierarchyConfig,
    MemoryLevel,
    TimedHierarchy,
)


def tiny_config(mem_latency=70):
    return HierarchyConfig(
        l1=CacheConfig("L1D", 256, 32, 2, 2),
        l2=CacheConfig("L2", 1024, 64, 4, 6),
        mem_latency=mem_latency,
        mshr_entries=4,
    )


class TestFunctionalHierarchy:
    def test_miss_then_hits(self):
        hierarchy = FunctionalHierarchy(tiny_config())
        assert hierarchy.access_fast(0) == MemoryLevel.MEM
        assert hierarchy.access_fast(0) == MemoryLevel.L1

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = FunctionalHierarchy(tiny_config())
        hierarchy.access_fast(0)
        # Evict line 0 from the 4-set 2-way L1 (same-set lines) while
        # the 1KB L2 keeps it.
        hierarchy.access_fast(128)
        hierarchy.access_fast(256)
        assert hierarchy.access_fast(0) == MemoryLevel.L2

    def test_warm_installs_silently(self):
        hierarchy = FunctionalHierarchy(tiny_config())
        hierarchy.warm(0)
        assert hierarchy.access_fast(0) == MemoryLevel.L1
        assert hierarchy.l1.misses == 0

    def test_scaled_config(self):
        config = tiny_config().scaled(2)
        assert config.l1.size_bytes == 128
        assert config.l2.size_bytes == 512
        assert config.l1.line_bytes == 32

    def test_with_mem_latency(self):
        config = tiny_config().with_mem_latency(140)
        assert config.mem_latency == 140
        assert config.l1 == tiny_config().l1


def coverage(timed):
    """The coverage counters: (full, partial, evicted prefetches)."""
    return (timed.full_covered, timed.partial_covered, timed.evicted_prefetches)


class TestTimedHierarchyBasics:
    def test_l1_hit_latency(self):
        timed = TimedHierarchy(tiny_config())
        timed.mt_access_fast(0, now=0)  # miss, installs
        assert timed.mt_access_fast(0, now=500) == (MemoryLevel.L1, 502)

    def test_memory_latency_includes_bus(self):
        timed = TimedHierarchy(tiny_config())
        # 70 memory + 64B over a 32B quarter-clock bus = 8 cycles.
        assert timed.mt_access_fast(0, now=0) == (MemoryLevel.MEM, 78)

    def test_in_flight_line_serializes_second_access(self):
        timed = TimedHierarchy(tiny_config())
        _, first = timed.mt_access_fast(0, now=0)
        _, second = timed.mt_access_fast(4, now=5)  # same line, in flight
        assert second >= first

    def test_mshr_merge_same_line(self):
        timed = TimedHierarchy(tiny_config())
        timed.mt_access_fast(0, now=0)
        assert timed.mshrs.merges == 0
        # A different L1 line in the same L2 line (L1 line 32B, L2 64B)
        # misses L1 and L2-hits (fill already installed) — so force an
        # L2-level merge via a second *L2* line fetch path instead:
        timed.mt_access_fast(4096, now=0)
        assert timed.mt_l2_misses == 2


class TestCoverageClassification:
    def test_full_coverage(self):
        timed = TimedHierarchy(tiny_config())
        _, done = timed.pt_access_fast(0, now=0)
        timed.mt_access_fast(0, now=done + 10)
        assert coverage(timed) == (1, 0, 0)

    def test_partial_coverage_waits_for_fill(self):
        timed = TimedHierarchy(tiny_config())
        _, done = timed.pt_access_fast(0, now=0)
        _, complete = timed.mt_access_fast(0, now=20)  # fill in flight
        assert coverage(timed) == (0, 1, 0)
        assert complete >= done
        assert timed.partial_covered_cycles >= 20

    def test_coverage_counted_once(self):
        timed = TimedHierarchy(tiny_config())
        _, done = timed.pt_access_fast(0, now=0)
        timed.mt_access_fast(0, now=done + 1)
        timed.mt_access_fast(0, now=done + 2)
        assert coverage(timed) == (1, 0, 0)

    def test_evicted_prefetch(self):
        config = tiny_config()
        timed = TimedHierarchy(config)
        timed.pt_access_fast(0, now=0)
        # Evict line 0 from the 1KB 4-way L2: fill its set heavily.
        num_sets = config.l2.num_sets
        for way in range(1, 8):
            timed.mt_access_fast(way * num_sets * 64, now=100 + way)
        assert coverage(timed) == (0, 0, 0)
        level, _ = timed.mt_access_fast(0, now=1000)
        assert level == MemoryLevel.MEM
        assert coverage(timed) == (0, 0, 1)

    def test_pt_loads_do_not_fill_l1(self):
        timed = TimedHierarchy(tiny_config())
        _, done = timed.pt_access_fast(0, now=0)
        level, _ = timed.mt_access_fast(0, now=done + 10)
        # The main thread finds the line in the L2, not the L1.
        assert level == MemoryLevel.L2

    def test_pt_hit_in_l2_no_stamp(self):
        timed = TimedHierarchy(tiny_config())
        _, done = timed.mt_access_fast(0, now=0)  # MT fetches the line
        level, _ = timed.pt_access_fast(0, now=done + 1)
        assert level in (MemoryLevel.L1, MemoryLevel.L2)
        timed.mt_access_fast(0, now=done + 50)
        assert coverage(timed) == (0, 0, 0)

    def test_unclaimed_prefetches(self):
        timed = TimedHierarchy(tiny_config())
        timed.pt_access_fast(0, now=0)
        timed.pt_access_fast(4096, now=0)
        assert timed.unclaimed_prefetches() == 2


class TestPhantomAccess:
    def test_phantom_does_not_change_state(self):
        timed = TimedHierarchy(tiny_config())
        assert timed.phantom_access_fast(0, now=0) == (MemoryLevel.MEM, 70)
        level, _ = timed.mt_access_fast(0, now=0)
        assert level == MemoryLevel.MEM

    def test_phantom_reads_residency(self):
        timed = TimedHierarchy(tiny_config())
        timed.mt_access_fast(0, now=0)
        assert timed.phantom_access_fast(0, now=100) == (MemoryLevel.L1, 102)


class TestPerfectL2:
    def test_miss_completes_in_l2_time(self):
        timed = TimedHierarchy(tiny_config(), perfect_l2=True)
        # Still counted as a miss.
        assert timed.mt_access_fast(0, now=0) == (MemoryLevel.MEM, 6)
        assert timed.mt_l2_misses == 1

    def test_same_line_followup_not_delayed(self):
        timed = TimedHierarchy(tiny_config(), perfect_l2=True)
        timed.mt_access_fast(0, now=0)
        _, complete = timed.mt_access_fast(4, now=1)
        assert complete <= 7
