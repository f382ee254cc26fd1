"""Shared warm state and request execution for the serve daemon.

One :class:`ServerState` owns everything that makes the daemon faster
than one-shot CLI runs:

* a single shared :class:`~repro.harness.experiment.ExperimentRunner`
  whose in-memory stage caches (workloads, traces, selections, timing
  runs) and the process-wide compile memo behind it stay warm
  across requests, backed by the persistent
  :class:`~repro.harness.artifacts.ArtifactCache`;
* a thread pool of ``workers`` threads whose FIFO is the daemon's one
  queue: each computed request runs on a pool thread, so the event loop
  never blocks on a simulation;
* admission control — once ``workers + queue_size`` requests are
  admitted and not yet answered, the daemon sheds load (HTTP 503 +
  ``Retry-After``) instead of queueing without bound;
* a bounded response cache keyed on the canonical request config, so a
  repeat submission is answered without re-entering the pipeline;
* a bounded span-tree history backing ``/trace/<id>``.

Every request carries a soft budget (its own ``budget_seconds`` or the
server default): the deadline is only consulted between pipeline
stages, and an expired budget yields a truncated-but-well-formed
payload rather than an error (see :mod:`repro.serve.protocol`).
"""

from __future__ import annotations

import asyncio
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
    request_cache_key,
    result_payload,
)

#: Latency buckets in seconds for the serve.request.seconds histogram.
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)

#: Payloads the response cache holds, least recently used evicted first.
RESPONSE_CACHE_SIZE = 256
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
    """Warm caches, admission control, and the thread pool."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        artifacts = None if self.config.no_cache else ArtifactCache.from_env()
        self.runner = ExperimentRunner(
            max_instructions=self.config.max_instructions, artifacts=artifacts
        )
        self.started = time.monotonic()
        self._seq = 0
        self._seq_lock = threading.Lock()
        # Requests admitted and not yet answered.  Only the event-loop
        # thread reads or writes it, so it needs no lock.
        self._admitted = 0
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        self._records: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._records_lock = threading.Lock()
        self._responses: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._responses_lock = threading.Lock()
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
            "serve.requests.cache_hits",
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
        """Stop the pool; a handler awaiting a queued request is cancelled."""
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- submission -----------------------------------------------------

    def next_request_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"r{self._seq:06d}"

    def _waiting(self) -> int:
        """Admitted requests that no pool thread has taken yet."""
        return max(0, self._admitted - self.config.workers)

    async def submit(self, request: RunRequest) -> Tuple[str, Dict[str, Any]]:
        """Run one request on the pool; returns ``(request_id, payload)``.

        Raises :class:`QueueFullError` when ``workers + queue_size``
        requests are already admitted.  A response-cache hit is answered
        immediately and is never admitted.
        """
        request_id = self.next_request_id()
        self._count("serve.requests.total")
        cached = self._response_get(request_cache_key(request))
        if cached is not None:
            self._count("serve.requests.cache_hits")
            self._count("serve.requests.ok")
            self._record(request_id, request, cached, spans=None, cached=True)
            return request_id, cached
        if self._admitted >= self.config.workers + self.config.queue_size:
            self._count("serve.requests.rejected")
            raise QueueFullError("request queue full")
        depth = get_registry().gauge("serve.queue.depth")
        self._admitted += 1
        depth.set(self._waiting())
        try:
            payload = await asyncio.get_running_loop().run_in_executor(
                self._pool, self._run_job, request_id, request
            )
        finally:
            self._admitted -= 1
            depth.set(self._waiting())
        return request_id, payload

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
        payload = result_payload(result)
        self._response_put(request_cache_key(request), payload)
        return payload

    # -- response cache -------------------------------------------------

    def _response_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._responses_lock:
            payload = self._responses.get(key)
            if payload is not None:
                self._responses.move_to_end(key)
            return payload

    def _response_put(self, key: str, payload: Dict[str, Any]) -> None:
        with self._responses_lock:
            self._responses[key] = payload
            self._responses.move_to_end(key)
            while len(self._responses) > RESPONSE_CACHE_SIZE:
                self._responses.popitem(last=False)

    # -- trace records --------------------------------------------------

    def _record(
        self,
        request_id: str,
        request: RunRequest,
        payload: Dict[str, Any],
        spans: Optional[Dict[str, Any]],
        cached: bool = False,
    ) -> None:
        record = {
            "id": request_id,
            "workload": request.config.workload,
            "input": request.config.input_name,
            "status": payload.get("status"),
            "cached": cached,
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

