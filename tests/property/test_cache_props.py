"""Property-based tests on cache and bus invariants."""

from hypothesis import given, strategies as st

from repro.memory.bus import Bus
from repro.memory.cache import Cache, CacheConfig
from repro.memory.mshr import MshrFile

addresses = st.lists(
    st.integers(min_value=0, max_value=1 << 16).map(lambda a: a * 4),
    min_size=1,
    max_size=200,
)


@given(addrs=addresses)
def test_cache_capacity_never_exceeded(addrs):
    cache = Cache(CacheConfig("T", 1024, 32, 2, 1))
    for addr in addrs:
        cache.access(addr)
    lines = {addr // 32 * 32 for addr in addrs}
    assert sum(cache.probe(line) for line in lines) <= 32  # 1024 / 32


@given(addrs=addresses)
def test_cache_repeat_access_always_hits(addrs):
    cache = Cache(CacheConfig("T", 4096, 32, 4, 1))
    for addr in addrs:
        cache.access(addr)
        assert cache.access(addr)  # immediate re-access must hit


@given(addrs=addresses)
def test_cache_stats_consistent(addrs):
    cache = Cache(CacheConfig("T", 1024, 32, 2, 1))
    for addr in addrs:
        cache.access(addr)
    assert cache.hits + cache.misses == cache.accesses
    assert cache.accesses == len(addrs)


@given(
    requests=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),  # request time
            st.integers(min_value=1, max_value=128),  # bytes
        ),
        min_size=1,
        max_size=100,
    )
)
def test_bus_completion_after_request(requests):
    bus = Bus("b", 32, 4)
    for now, num_bytes in requests:
        done = bus.request(now, num_bytes)
        assert done >= now + bus.transfer_cycles(num_bytes)


@given(
    lines=st.lists(
        st.integers(min_value=0, max_value=50).map(lambda x: x * 64),
        min_size=1,
        max_size=60,
    )
)
def test_mshr_outstanding_bounded(lines):
    mshrs = MshrFile(8)
    now = 0
    for line in lines:
        if mshrs.lookup(line, now) is None:
            mshrs.allocate(line, now, now + 70)
        assert mshrs.outstanding(now) <= 8
        now += 3
