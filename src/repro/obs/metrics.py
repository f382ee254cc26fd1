"""Typed metrics registry: counters, gauges, histograms with dotted names.

Metric names are stable, dotted identifiers (``timing.pthread.launches``,
``memory.l2.mshr_occupancy``) that downstream tooling may rely on; the
catalog in :mod:`repro.obs.export` pins name -> type so CI can flag a
metric silently disappearing or changing kind.

Instruments are get-or-create: calling ``registry.counter(name)`` twice
returns the same object, and asking for an existing name with a different
type raises.  Hot simulator loops never touch the registry per event —
subsystems accumulate into their own plain-int fields and *publish* totals
once at end of run, so instrumentation cost stays out of the inner loops.

Thread safety: the serve daemon publishes metrics from concurrent worker
threads into one shared registry, so every mutation that is a
read-modify-write (``value += n``, histogram bucket updates, registry
get-or-create) takes a per-instrument or registry lock.  ``+=`` on a
Python int is *not* atomic — the interpreter can switch threads between
the load and the store — and the unsynchronized get-or-create could
either create two instruments for one name (losing one side's counts) or
raise spurious kind conflicts.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence


class Counter:
    """Monotonically increasing integer metric."""

    kind = "counter"

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Point-in-time numeric metric (may go up or down)."""

    kind = "gauge"

    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += float(amount)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


class Histogram:
    """Cumulative-bucket histogram (Prometheus style: counts are per
    upper bound ``le``, plus an implicit +Inf bucket)."""

    kind = "histogram"

    __slots__ = ("name", "help", "bounds", "counts", "count", "total", "_lock")

    def __init__(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        self.help = help
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bucket bounds must be sorted")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float, weight: int = 1) -> None:
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += weight
            self.count += weight
            self.total += value * weight

    def merge(self, counts: Sequence[int], count: int, total: float) -> None:
        """Fold another histogram's (delta) counts into this one."""
        with self._lock:
            for index, value in enumerate(counts):
                self.counts[index] += int(value)
            self.count += int(count)
            self.total += float(total)

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "type": self.kind,
                "buckets": list(self.bounds),
                "counts": list(self.counts),
                "count": self.count,
                "sum": self.total,
            }


class MetricsRegistry:
    """Registry of named instruments with snapshot / merge."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        # RLock: merge_snapshot calls the get-or-create accessors while
        # already holding the registry lock.
        self._lock = threading.RLock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data view of every instrument, keyed by metric name."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.to_dict() for name, metric in items}

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a snapshot (typically a worker cell's) into this registry.

        Counters and histograms accumulate; gauges take the incoming value.
        """
        with self._lock:
            for name, entry in snapshot.items():
                kind = entry["type"]
                if kind == "counter":
                    self.counter(name).inc(int(entry["value"]))
                elif kind == "gauge":
                    self.gauge(name).set(entry["value"])
                elif kind == "histogram":
                    hist = self.histogram(name, buckets=entry["buckets"])
                    if list(hist.bounds) != list(entry["buckets"]):
                        raise ValueError(
                            f"histogram {name!r}: bucket mismatch on merge "
                            f"({list(hist.bounds)} vs {entry['buckets']})"
                        )
                    hist.merge(entry["counts"], entry["count"], entry["sum"])
                else:
                    raise ValueError(f"metric {name!r}: unknown type {kind!r}")


# Process-global registry, mirroring the tracer: instrumented subsystems
# publish into get_registry() so call signatures stay unchanged, and
# worker processes reset it per cell, so each cell's snapshot holds only
# that cell's counts.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def reset_registry() -> MetricsRegistry:
    """Install and return a fresh registry (start of a run / worker cell)."""
    registry = MetricsRegistry()
    set_registry(registry)
    return registry
