"""Metrics registry: instruments, snapshot, worker-merge semantics."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    reset_registry,
    set_registry,
)


def test_counter_increments_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("timing.pthread.launches")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_and_add():
    registry = MetricsRegistry()
    gauge = registry.gauge("harness.cache.bytes")
    gauge.set(10)
    gauge.add(2.5)
    assert gauge.value == 12.5


def test_histogram_buckets_and_weighted_observe():
    registry = MetricsRegistry()
    hist = registry.histogram("memory.l2.mshr_occupancy", buckets=(1, 4, 16))
    hist.observe(1)          # le=1 bucket (bounds are inclusive)
    hist.observe(3, weight=10)
    hist.observe(100)        # overflows into +Inf
    assert hist.counts == [1, 10, 0, 1]
    assert hist.count == 12
    assert hist.total == 1 + 30 + 100


def test_histogram_default_buckets_and_sorted_check():
    registry = MetricsRegistry()
    hist = registry.histogram("h")
    assert hist.bounds == DEFAULT_BUCKETS
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("bad", buckets=(4, 1))


def test_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(1.5)
    registry.histogram("h", buckets=(2,)).observe(1)
    snap = registry.snapshot()
    assert snap["c"] == {"type": "counter", "value": 3}
    assert snap["g"] == {"type": "gauge", "value": 1.5}
    assert snap["h"] == {
        "type": "histogram",
        "buckets": [2],
        "counts": [1, 0],
        "count": 1,
        "sum": 1.0,
    }


def test_merge_snapshot_accumulates_worker_payloads():
    """The sweep coordinator folds per-cell snapshots from workers."""
    worker_a = MetricsRegistry()
    worker_a.counter("timing.pthread.launches").inc(10)
    worker_a.histogram("occ", buckets=(1, 2)).observe(1, weight=3)
    worker_b = MetricsRegistry()
    worker_b.counter("timing.pthread.launches").inc(7)
    worker_b.histogram("occ", buckets=(1, 2)).observe(2, weight=5)

    coordinator = MetricsRegistry()
    coordinator.merge_snapshot(worker_a.snapshot())
    coordinator.merge_snapshot(worker_b.snapshot())

    assert coordinator.counter("timing.pthread.launches").value == 17
    merged = coordinator.get("occ")
    assert merged.counts == [3, 5, 0]
    assert merged.count == 8
    assert merged.total == 13.0


def test_merge_snapshot_gauge_takes_incoming_value():
    coordinator = MetricsRegistry()
    coordinator.gauge("g").set(1)
    coordinator.merge_snapshot({"g": {"type": "gauge", "value": 9.0}})
    assert coordinator.gauge("g").value == 9.0


def test_merge_snapshot_bucket_mismatch_raises():
    coordinator = MetricsRegistry()
    coordinator.histogram("h", buckets=(1, 2))
    with pytest.raises(ValueError):
        coordinator.merge_snapshot(
            {
                "h": {
                    "type": "histogram",
                    "buckets": [1, 4],
                    "counts": [0, 0, 0],
                    "count": 0,
                    "sum": 0.0,
                }
            }
        )


def test_merge_snapshot_unknown_kind_raises():
    with pytest.raises(ValueError):
        MetricsRegistry().merge_snapshot({"x": {"type": "mystery", "value": 0}})


def test_global_registry_reset_and_restore():
    original = get_registry()
    try:
        fresh = reset_registry()
        assert get_registry() is fresh
        assert fresh is not original
        assert fresh.names() == []
    finally:
        set_registry(original)
