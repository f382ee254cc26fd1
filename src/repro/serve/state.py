"""Shared warm state and request execution for the serve daemon.

One :class:`ServerState` owns everything that makes the daemon faster
than one-shot CLI runs:

* a single shared :class:`~repro.harness.experiment.ExperimentRunner`
  whose in-memory stage caches (workloads, traces, selections, timing
  runs) and the process-wide compile memo behind it stay warm
  across requests, backed by the persistent
  :class:`~repro.harness.artifacts.ArtifactCache`;
* a thread pool of ``workers`` threads whose FIFO is the daemon's one
  queue: every request runs on a pool thread, while the connection
  thread that submitted it waits for the answer;
* admission control — once ``workers + queue_size`` requests are
  admitted and not yet answered, the daemon sheds load (HTTP 503 +
  ``Retry-After``) instead of queueing without bound;
* a bounded span-tree history backing ``/trace/<id>``.

The runner's stage memo is the daemon's one cache.  A repeat of an
answered request is admitted like any other and finds every stage in
the memo, so its payload differs from the first answer only in its own
``timings``.

Every request carries a soft budget (its own ``budget_seconds`` or the
server default): the deadline is only consulted between pipeline
stages, and an expired budget yields a truncated-but-well-formed
payload rather than an error (see :mod:`repro.serve.protocol`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.harness.artifacts import ArtifactCache, publish_cache_gauges
from repro.harness.experiment import ExperimentDeadlineError, ExperimentRunner
from repro.obs import get_registry, get_tracer, snapshot_document
from repro.serve.protocol import (
    RunRequest,
    check_budget,
    partial_payload,
    result_payload,
)

#: Latency buckets in seconds for the serve.request.seconds histogram.
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)

#: Completed requests whose ``/trace/<id>`` record is kept.
TRACE_HISTORY = 256


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs (the ``repro serve`` flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 2
    queue_size: int = 32
    max_instructions: int = 10_000_000
    default_budget_seconds: Optional[float] = None
    no_cache: bool = False

    def __post_init__(self) -> None:
        for name in ("workers", "queue_size", "max_instructions"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.default_budget_seconds is not None:
            check_budget(self.default_budget_seconds, "default_budget_seconds")


class QueueFullError(RuntimeError):
    """Submission rejected: ``workers + queue_size`` requests are admitted."""


class ServerState:
    """The shared runner, admission control, and the thread pool."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        artifacts = None if self.config.no_cache else ArtifactCache.from_env()
        self.runner = ExperimentRunner(
            max_instructions=self.config.max_instructions, artifacts=artifacts
        )
        self.started = time.monotonic()
        # Guards the request sequence and the admission count.
        self._lock = threading.Lock()
        self._seq = 0
        # Requests admitted and not yet answered.
        self._admitted = 0
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._records: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._records_lock = threading.Lock()
        self._register_metrics()

    # -- metrics --------------------------------------------------------

    def _register_metrics(self) -> None:
        registry = get_registry()
        for name in (
            "serve.requests.total",
            "serve.requests.ok",
            "serve.requests.errors",
            "serve.requests.rejected",
            "serve.requests.budget_exceeded",
        ):
            registry.counter(name)
        registry.gauge("serve.queue.depth")
        registry.histogram("serve.request.seconds", buckets=LATENCY_BUCKETS)

    def _count(self, name: str, amount: int = 1) -> None:
        get_registry().counter(name).inc(amount)

    def metrics_document(self) -> Dict[str, Any]:
        """The registry snapshot, with the cache-size gauges set now."""
        publish_cache_gauges(self.runner.artifacts)
        return snapshot_document(get_registry())

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop the pool; a queued request's submitter gets a 500."""
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- submission -----------------------------------------------------

    def _waiting(self) -> int:
        """Admitted requests that no pool thread has taken yet."""
        return max(0, self._admitted - self.config.workers)

    def submit(self, request: RunRequest) -> Tuple[str, Dict[str, Any]]:
        """Run one request on the pool and wait for it; returns
        ``(request_id, payload)``.

        Raises :class:`QueueFullError` when ``workers + queue_size``
        requests are already admitted, and whatever the run raised.
        """
        self._count("serve.requests.total")
        depth = get_registry().gauge("serve.queue.depth")
        with self._lock:
            self._seq += 1
            request_id = f"r{self._seq:06d}"
            if self._admitted >= self.config.workers + self.config.queue_size:
                self._count("serve.requests.rejected")
                raise QueueFullError("request queue full")
            self._admitted += 1
            depth.set(self._waiting())
        try:
            job = self._pool.submit(self._run_job, request_id, request)
            return request_id, job.result()
        finally:
            with self._lock:
                self._admitted -= 1
                depth.set(self._waiting())

    def _run_job(self, request_id: str, request: RunRequest) -> Dict[str, Any]:
        """Execute one request on the shared runner (pool thread).

        The request gets its own ``request`` span; the contextvars-scoped
        tracer keeps concurrent requests' spans from nesting under each
        other.  A failure counts ``serve.requests.errors`` and raises.
        Either way the span leaves the process tracer, so a long-lived
        daemon keeps only the bounded ``/trace/<id>`` history.
        """
        tracer = get_tracer()
        with tracer.span(
            "request", id=request_id, workload=request.config.workload
        ) as span:
            try:
                payload = self._execute(request)
            except Exception:
                self._count("serve.requests.errors")
                raise
            finally:
                tracer.root.children.remove(span)
        spans = span.to_dict()
        registry = get_registry()
        registry.histogram(
            "serve.request.seconds", buckets=LATENCY_BUCKETS
        ).observe(span.duration)
        if payload["status"] == "ok":
            self._count("serve.requests.ok")
        else:
            self._count("serve.requests.budget_exceeded")
        self._record(request_id, request, payload, spans)
        return payload

    def _execute(self, request: RunRequest) -> Dict[str, Any]:
        budget = (
            request.budget_seconds
            if request.budget_seconds is not None
            else self.config.default_budget_seconds
        )
        deadline = time.monotonic() + budget if budget is not None else None
        try:
            result = self.runner.run(request.config, deadline=deadline)
        except ExperimentDeadlineError as expired:
            return partial_payload(expired.partial)
        return result_payload(result)

    # -- trace records --------------------------------------------------

    def _record(
        self,
        request_id: str,
        request: RunRequest,
        payload: Dict[str, Any],
        spans: Dict[str, Any],
    ) -> None:
        # ``cached`` is always false: every request runs on the pool.
        # The key stays because perfbench's traced serve run reads it.
        record = {
            "id": request_id,
            "workload": request.config.workload,
            "input": request.config.input_name,
            "status": payload.get("status"),
            "cached": False,
            "spans": spans,
        }
        with self._records_lock:
            self._records[request_id] = record
            while len(self._records) > TRACE_HISTORY:
                self._records.popitem(last=False)

    def trace_record(self, request_id: str) -> Optional[Dict[str, Any]]:
        with self._records_lock:
            record = self._records.get(request_id)
            return dict(record) if record is not None else None

    # -- health ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        registry = get_registry()
        return {
            "status": "ok",
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "queue_depth": self._waiting(),
            "queue_size": self.config.queue_size,
            "workers": self.config.workers,
            "requests_total": registry.counter("serve.requests.total").value,
            "cache_enabled": self.runner.artifacts is not None,
        }

