"""Tests for the set-associative LRU cache."""

import pytest

from repro.memory.cache import Cache, CacheConfig


def small_cache(assoc=2, sets=4, line=32):
    return Cache(
        CacheConfig(
            name="T",
            size_bytes=assoc * sets * line,
            line_bytes=line,
            assoc=assoc,
            hit_latency=1,
        )
    )


class TestConfig:
    def test_num_sets(self):
        config = CacheConfig("T", 1024, 32, 2, 1)
        assert config.num_sets == 16

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("T", 1000, 32, 2, 1)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("T", 1024, 24, 2, 1)


class TestAccess:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.misses == 1 and cache.hits == 1

    def test_same_line_different_word_hits(self):
        cache = small_cache(line=32)
        cache.access(0)
        assert cache.access(28)
        assert not cache.access(32)  # next line

    def test_lru_eviction_order(self):
        cache = small_cache(assoc=2, sets=1, line=32)
        a, b, c = 0, 32, 64  # all map to the single set
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is MRU
        cache.access(c)  # evicts b (LRU)
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_probe_does_not_update_lru(self):
        cache = small_cache(assoc=2, sets=1)
        a, b, c = 0, 32, 64
        cache.access(a)
        cache.access(b)  # LRU order: b, a
        cache.probe(a)  # must NOT promote a
        cache.access(c)  # evicts a
        assert not cache.probe(a)
        assert cache.probe(b)

    def test_probe_does_not_count_stats(self):
        cache = small_cache()
        cache.probe(0)
        assert cache.accesses == 0

    def test_dirty_eviction_counts_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0, is_write=True)
        cache.access(32)  # evict dirty line
        assert cache.writebacks == 1
        cache.access(64)  # evict clean line
        assert cache.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = small_cache(assoc=1, sets=1)
        cache.access(0)
        cache.access(0, is_write=True)
        cache.access(32)
        assert cache.writebacks == 1

    def test_fill_installs_without_stats(self):
        cache = small_cache()
        cache.fill(0)
        assert cache.probe(0)
        assert cache.accesses == 0 and cache.misses == 0

    def test_fill_existing_line_is_noop(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(0)
        cache.fill(32)
        cache.fill(0)  # resident: no second copy, no LRU update
        cache.fill(64)  # evicts the LRU line, 0
        assert not cache.probe(0) and cache.probe(32)

    def test_capacity_bound(self):
        cache = small_cache(assoc=2, sets=4)
        for i in range(100):
            cache.access(i * 32)
        assert sum(cache.probe(i * 32) for i in range(100)) == 8

    def test_line_addr(self):
        cache = small_cache(line=32)
        cache.access(0)
        assert cache.probe(31) and not cache.probe(32)
        cache.access(100)
        assert cache.probe(96) and not cache.probe(128)


class TestGoldenSequences:
    """Scripted access sequences with exact expected outcomes.

    These pin the flat-array LRU implementation (and the compiled
    engine's inlined copy of its hit path) to known-good behaviour:
    any change to replacement order, dirty tracking, or writeback
    accounting shows up as an exact mismatch here.
    """

    def test_lru_golden_sequence(self):
        cache = small_cache(assoc=2, sets=1, line=32)
        # (address, is_write) -> expected hit
        script = [
            (0, False, False),     # miss, installs A
            (32, False, False),    # miss, installs B (A is LRU)
            (0, False, True),      # hit A, A becomes MRU
            (64, False, False),    # miss, evicts B (LRU)
            (32, False, False),    # miss again: B was evicted
            (0, False, False),     # miss: A was evicted by B reload
            (0, False, True),      # hit
        ]
        for addr, is_write, expected_hit in script:
            assert cache.access(addr, is_write) is expected_hit, addr
        assert cache.accesses == len(script)
        assert cache.misses == 5
        assert cache.hits == 2

    def test_writeback_golden_sequence(self):
        cache = small_cache(assoc=2, sets=1, line=32)
        cache.access(0, is_write=True)    # A dirty
        cache.access(32, is_write=False)  # B clean
        cache.access(64, is_write=False)  # evicts A (LRU, dirty) -> wb
        assert cache.writebacks == 1
        cache.access(96, is_write=False)  # evicts B (clean) -> no wb
        assert cache.writebacks == 1
        cache.access(64, is_write=True)   # hit, re-dirty
        cache.access(128, is_write=False) # evicts 96 (clean)
        assert cache.writebacks == 1
        cache.access(160, is_write=False) # evicts 64 (dirty) -> wb
        assert cache.writebacks == 2

    def test_write_miss_installs_dirty(self):
        cache = small_cache(assoc=2, sets=1, line=32)
        cache.access(0, is_write=True)   # write miss: allocate dirty
        cache.access(32, is_write=False)
        cache.access(64, is_write=False)  # evicts line 0: dirty
        assert cache.writebacks == 1

    def test_mru_move_preserves_dirty_bits(self):
        cache = small_cache(assoc=2, sets=1, line=32)
        cache.access(0, is_write=True)   # A dirty
        cache.access(32, is_write=False) # B clean, A now LRU
        cache.access(0, is_write=False)  # hit A: moves to MRU, stays dirty
        cache.access(32, is_write=False) # hit B: B MRU, A LRU
        cache.access(64, is_write=False) # evicts A: must write back
        assert cache.writebacks == 1
