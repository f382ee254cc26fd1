"""Thread-safety regressions for the metrics registry.

The serve daemon publishes into one shared registry from concurrent
worker threads.  These tests fail on the pre-lock implementation:
``value += n`` is a load/add/store sequence the interpreter can switch
threads inside, so unsynchronized increments lose updates, and the
unsynchronized get-or-create could build two instruments for one name.
A tiny switch interval makes the races land reliably.
"""

import sys
import threading
import time

import pytest

from repro.obs import MetricsRegistry

THREADS = 8
ROUNDS = 2_000


class _Preemptible(int):
    """Integer whose ``+`` yields the GIL mid read-modify-write.

    ``value += n`` on a plain int compiles to a load/add/store sequence
    with no eval-breaker point inside, so CPython rarely preempts it
    even at a tiny switch interval.  Seeding an instrument with this
    type puts a guaranteed thread-switch point between the load and the
    store — exactly the window the per-instrument locks must close, so
    these tests fail deterministically on the unlocked implementation.
    """

    def __add__(self, other):
        total = int(self) + int(other)
        time.sleep(0)  # a call releases the GIL: forced preemption point
        return _Preemptible(total)

    __radd__ = __add__


def _hammer(work) -> None:
    """Run ``work()`` from THREADS barrier-started threads, racing hard."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(THREADS)
        errors = []

        def body():
            try:
                barrier.wait()
                work()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=body) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
    finally:
        sys.setswitchinterval(previous)


def test_counter_concurrent_increments_lose_nothing():
    registry = MetricsRegistry()
    counter = registry.counter("race.counter")
    _hammer(lambda: [counter.inc() for _ in range(ROUNDS)])
    assert counter.value == THREADS * ROUNDS


def test_counter_concurrent_bulk_increments():
    registry = MetricsRegistry()
    counter = registry.counter("race.bulk")
    _hammer(lambda: [counter.inc(3) for _ in range(ROUNDS)])
    assert counter.value == THREADS * ROUNDS * 3


def test_gauge_concurrent_adds():
    registry = MetricsRegistry()
    gauge = registry.gauge("race.gauge")
    _hammer(lambda: [gauge.add(1.0) for _ in range(ROUNDS)])
    assert gauge.value == pytest.approx(THREADS * ROUNDS)


def test_histogram_concurrent_observes():
    registry = MetricsRegistry()
    hist = registry.histogram("race.hist", buckets=(1, 10))
    _hammer(lambda: [hist.observe(5.0) for _ in range(ROUNDS)])
    assert hist.count == THREADS * ROUNDS
    assert sum(hist.counts) == THREADS * ROUNDS
    assert hist.total == pytest.approx(THREADS * ROUNDS * 5.0)


def test_get_or_create_race_yields_one_instrument():
    """Racing ``registry.counter(name)`` must converge on one object."""
    registry = MetricsRegistry()
    _hammer(lambda: [registry.counter("race.shared").inc() for _ in range(ROUNDS)])
    assert registry.names() == ["race.shared"]
    assert registry.get("race.shared").value == THREADS * ROUNDS


def test_counter_increment_is_atomic_under_forced_preemption():
    registry = MetricsRegistry()
    counter = registry.counter("race.preempt.counter")
    counter.value = _Preemptible(0)
    _hammer(lambda: [counter.inc() for _ in range(ROUNDS)])
    assert counter.value == THREADS * ROUNDS


def test_gauge_add_is_atomic_under_forced_preemption():
    registry = MetricsRegistry()
    gauge = registry.gauge("race.preempt.gauge")
    gauge.value = _Preemptible(0)
    _hammer(lambda: [gauge.add(1) for _ in range(ROUNDS)])
    assert gauge.value == THREADS * ROUNDS


def test_histogram_observe_is_atomic_under_forced_preemption():
    registry = MetricsRegistry()
    hist = registry.histogram("race.preempt.hist", buckets=(1, 10))
    hist.counts = [_Preemptible(0)] * len(hist.counts)
    hist.count = _Preemptible(0)
    hist.total = _Preemptible(0)
    _hammer(lambda: [hist.observe(5.0) for _ in range(ROUNDS)])
    assert hist.count == THREADS * ROUNDS
    assert sum(hist.counts) == THREADS * ROUNDS
    assert hist.total == THREADS * ROUNDS * 5


def test_merge_snapshot_races_with_increments():
    """Worker-snapshot merges interleaved with live increments stay exact."""
    registry = MetricsRegistry()
    counter = registry.counter("race.merged")
    delta = {"race.merged": {"type": "counter", "value": 1}}
    _hammer(
        lambda: [
            (counter.inc(), registry.merge_snapshot(delta))
            for _ in range(ROUNDS)
        ]
    )
    assert counter.value == THREADS * ROUNDS * 2
