"""The timed hierarchy, bus and MSHR file agree with the reference.

:mod:`tests.memory.reference_hierarchy` keeps the original access
paths.  ``eventsim`` shares :class:`TimedHierarchy` with the trace
model, so cross-model parity cannot see a hierarchy bug; this file is
the hierarchy's oracle.  Hypothesis drives both with the same
main-thread reads and writes, p-thread loads and phantom loads at
out-of-order cycles, on small geometries: power-of-two and odd set
counts, a 2-entry MSHR file that forces full stalls, a bus narrower
than a line, and perfect-L2.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.memory.bus import Bus
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, TimedHierarchy
from repro.memory.mshr import MshrFile
from tests.memory.reference_hierarchy import (
    ReferenceBus,
    ReferenceMshrFile,
    ReferenceTimedHierarchy,
)

CONFIGS = {
    "pow2": HierarchyConfig(
        l1=CacheConfig("L1D", 256, 32, 2, 2),
        l2=CacheConfig("L2", 1024, 64, 4, 6),
        mem_latency=70,
        mshr_entries=4,
    ),
    # 3 L1 sets and 5 L2 sets: the modulo index path; a 24-byte
    # backside bus moves a 32-byte L1 line in two beats.
    "odd_sets": HierarchyConfig(
        l1=CacheConfig("L1D", 192, 32, 2, 1),
        l2=CacheConfig("L2", 1280, 64, 4, 5),
        mem_latency=40,
        mshr_entries=4,
        backside_bus_bytes=24,
        memory_bus_bytes=16,
        memory_bus_divisor=3,
    ),
    # Two MSHRs: most bursts of misses stall on a full file.
    "two_mshrs": HierarchyConfig(
        l1=CacheConfig("L1D", 128, 32, 1, 2),
        l2=CacheConfig("L2", 512, 64, 2, 6),
        mem_latency=90,
        mshr_entries=2,
    ),
}

ACCESS_KINDS = ("mt_read", "mt_write", "pt", "phantom")

accesses = st.lists(
    st.tuples(
        st.sampled_from(ACCESS_KINDS),
        st.integers(min_value=0, max_value=767).map(lambda word: word * 8),
        st.integers(min_value=0, max_value=500),  # cycle, in any order
    ),
    min_size=1,
    max_size=150,
)


def run_access(hierarchy, kind: str, addr: int, now: int):
    """One access, then the coverage counters it may move.  Each access
    moves at most one of them, so comparing them after every access
    pins the coverage class of each."""
    if kind == "mt_read":
        result = hierarchy.mt_access_fast(addr, now)
    elif kind == "mt_write":
        result = hierarchy.mt_access_fast(addr, now, True)
    elif kind == "pt":
        result = hierarchy.pt_access_fast(addr, now)
    else:
        result = hierarchy.phantom_access_fast(addr, now)
    return result, (
        hierarchy.full_covered,
        hierarchy.partial_covered,
        hierarchy.evicted_prefetches,
    )


def cache_state(cache):
    return (cache.accesses, cache.misses, cache.writebacks, cache._tags, cache._dirty)


def bus_state(bus):
    return (bus.transfers, bus.busy_cycles, bus.wait_cycles)


def mshr_state(mshrs):
    return (
        mshrs.allocations,
        mshrs.merges,
        mshrs.full_stalls,
        mshrs.occupancy_samples,
    )


def coverage_state(hierarchy):
    return (
        hierarchy.mt_accesses,
        hierarchy.mt_l2_misses,
        hierarchy.pt_accesses,
        hierarchy.pt_l2_misses,
        hierarchy.full_covered,
        hierarchy.partial_covered,
        hierarchy.partial_covered_cycles,
        hierarchy.evicted_prefetches,
        hierarchy.unclaimed_prefetches(),
    )


@pytest.mark.parametrize("perfect_l2", [False, True], ids=["timed", "perfect_l2"])
@pytest.mark.parametrize("geometry", sorted(CONFIGS))
@given(ops=accesses)
def test_hierarchy_matches_reference(geometry, perfect_l2, ops):
    config = CONFIGS[geometry]
    fast = TimedHierarchy(config, perfect_l2=perfect_l2)
    ref = ReferenceTimedHierarchy(config, perfect_l2=perfect_l2)
    for kind, addr, now in ops:
        assert run_access(fast, kind, addr, now) == run_access(
            ref, kind, addr, now
        ), (kind, addr, now)
    assert cache_state(fast.l1) == cache_state(ref.l1)
    assert cache_state(fast.l2) == cache_state(ref.l2)
    assert bus_state(fast.backside_bus) == bus_state(ref.backside_bus)
    assert bus_state(fast.memory_bus) == bus_state(ref.memory_bus)
    assert mshr_state(fast.mshrs) == mshr_state(ref.mshrs)
    assert coverage_state(fast) == coverage_state(ref)
    last = max(now for _, _, now in ops)
    assert fast.mshrs.outstanding(last) == ref.mshrs.outstanding(last)


@given(
    width=st.integers(min_value=1, max_value=40),
    divisor=st.integers(min_value=1, max_value=4),
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400),
            st.sampled_from([8, 32, 33, 64]),
        ),
        min_size=1,
        max_size=80,
    ),
)
def test_bus_matches_reference(width, divisor, requests):
    fast = Bus("b", width, divisor)
    ref = ReferenceBus("b", width, divisor)
    for now, num_bytes in requests:
        assert fast.request(now, num_bytes) == ref.request(now, num_bytes)
    assert bus_state(fast) == bus_state(ref)


@given(
    capacity=st.integers(min_value=1, max_value=4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(("lookup", "allocate", "outstanding")),
            st.integers(min_value=0, max_value=7).map(lambda line: line * 64),
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=0, max_value=120),
        ),
        min_size=1,
        max_size=80,
    ),
)
def test_mshr_matches_reference(capacity, ops):
    fast = MshrFile(capacity)
    ref = ReferenceMshrFile(capacity)
    for op, line, now, latency in ops:
        if op == "lookup":
            assert fast.lookup(line, now) == ref.lookup(line, now)
        elif op == "allocate":
            # Re-allocating a line still in flight overwrites its ready
            # time, which the earliest-ready bound must survive.
            ready = now + latency
            assert fast.allocate(line, now, ready) == ref.allocate(line, now, ready)
        else:
            assert fast.outstanding(now) == ref.outstanding(now)
    assert mshr_state(fast) == mshr_state(ref)
