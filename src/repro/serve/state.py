"""Shared warm state and request execution for the serve daemon.

One :class:`ServerState` owns everything that makes the daemon faster
than one-shot CLI runs:

* a single shared :class:`~repro.harness.experiment.ExperimentRunner`
  whose in-memory stage caches (workloads, traces, selections, timing
  runs) and the process-wide compile memo behind it stay warm
  across requests, backed by the persistent
  :class:`~repro.harness.artifacts.ArtifactCache`/``CodeCache``;
* a bounded submission queue — when it is full the daemon sheds load
  (HTTP 503 + ``Retry-After``) instead of queueing without bound;
* worker coroutines that drain the queue in small batches and execute
  them through :meth:`SweepExecutor.run_one` on a thread pool, so the
  event loop never blocks on a simulation;
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
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.artifacts import ArtifactCache, publish_cache_gauges
from repro.harness.experiment import ExperimentResult, ExperimentRunner
from repro.harness.parallel import SweepExecutor
from repro.obs import get_registry, get_tracer, snapshot_document
from repro.serve.protocol import (
    RunRequest,
    partial_payload,
    request_cache_key,
    result_payload,
)

#: Latency buckets in seconds for the serve.request.seconds histogram.
LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 2
    queue_size: int = 32
    batch_max: int = 4
    max_instructions: int = 10_000_000
    default_budget_seconds: Optional[float] = None
    response_cache_size: int = 256
    trace_history: int = 256
    max_body_bytes: int = 1 << 20
    retry_after_seconds: int = 1
    no_cache: bool = False


class QueueFullError(RuntimeError):
    """Submission rejected because the bounded queue is at capacity."""

    def __init__(self, retry_after: int) -> None:
        super().__init__("request queue full")
        self.retry_after = retry_after


@dataclass
class _Job:
    request_id: str
    request: RunRequest
    future: "asyncio.Future[Dict[str, Any]]"
    loop: asyncio.AbstractEventLoop


class ServerState:
    """Warm caches, the bounded queue, and the worker pool."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        artifacts = None if self.config.no_cache else ArtifactCache.from_env()
        self.runner = ExperimentRunner(
            max_instructions=self.config.max_instructions, artifacts=artifacts
        )
        # jobs=1: cells run in-process on the shared runner, which is
        # exactly what keeps its caches warm across requests.  The
        # thread pool below provides the request-level concurrency.
        self.executor = SweepExecutor(
            jobs=1, runner=self.runner, artifacts=artifacts
        )
        self.started = time.monotonic()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue(
            maxsize=max(1, self.config.queue_size)
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        self._workers: List[asyncio.Task] = []
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
        registry.histogram("serve.batch.size")
        registry.histogram("serve.request.seconds", buckets=LATENCY_BUCKETS)

    def _count(self, name: str, amount: int = 1) -> None:
        get_registry().counter(name).inc(amount)

    def metrics_document(self) -> Dict[str, Any]:
        """The registry snapshot, with the cache-size gauges set now."""
        publish_cache_gauges(self.runner.artifacts)
        return snapshot_document(get_registry())

    # -- lifecycle ------------------------------------------------------

    def start_workers(self) -> None:
        if self._workers:
            return
        for index in range(max(1, self.config.workers)):
            self._workers.append(
                asyncio.get_running_loop().create_task(
                    self._worker_loop(index), name=f"serve-worker-{index}"
                )
            )

    async def close(self) -> None:
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers = []
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- submission -----------------------------------------------------

    def next_request_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"r{self._seq:06d}"

    async def submit(self, request: RunRequest) -> Tuple[str, Dict[str, Any]]:
        """Queue one request; returns ``(request_id, payload)``.

        Raises :class:`QueueFullError` when the bounded queue sheds the
        submission.  A response-cache hit is answered immediately and
        never touches the queue.
        """
        request_id = self.next_request_id()
        self._count("serve.requests.total")
        cached = self._response_get(request_cache_key(request))
        if cached is not None:
            self._count("serve.requests.cache_hits")
            self._count("serve.requests.ok")
            self._record(request_id, request, cached, spans=None, cached=True)
            return request_id, cached
        loop = asyncio.get_running_loop()
        job = _Job(
            request_id=request_id,
            request=request,
            future=loop.create_future(),
            loop=loop,
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._count("serve.requests.rejected")
            raise QueueFullError(self.config.retry_after_seconds) from None
        get_registry().gauge("serve.queue.depth").set(self._queue.qsize())
        return request_id, await job.future

    # -- worker loop ----------------------------------------------------

    async def _worker_loop(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            while len(batch) < max(1, self.config.batch_max):
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            registry = get_registry()
            registry.gauge("serve.queue.depth").set(self._queue.qsize())
            registry.histogram("serve.batch.size").observe(len(batch))
            try:
                await loop.run_in_executor(
                    self._pool, self._run_batch, batch
                )
            except Exception as error:  # pool torn down mid-flight
                for job in batch:
                    if not job.future.done():
                        job.future.set_exception(error)
            finally:
                for _ in batch:
                    self._queue.task_done()

    def _run_batch(self, batch: List[_Job]) -> None:
        """Execute one drained batch on the shared runner (worker thread).

        Each job gets its own ``request`` span; the contextvars-scoped
        tracer keeps concurrent batches' spans from nesting under each
        other.  Failures resolve the job's future with the exception —
        one bad request never poisons its batchmates.
        """
        tracer = get_tracer()
        for job in batch:
            try:
                with tracer.span(
                    "request",
                    id=job.request_id,
                    workload=job.request.config.workload,
                ) as span:
                    payload = self._execute(job.request)
                spans = span.to_dict()
                tracer.root.children.remove(span)
            except Exception as error:
                self._count("serve.requests.errors")
                job.loop.call_soon_threadsafe(
                    _resolve, job.future, None, error
                )
                continue
            registry = get_registry()
            registry.histogram(
                "serve.request.seconds", buckets=LATENCY_BUCKETS
            ).observe(span.duration)
            if payload["status"] == "ok":
                self._count("serve.requests.ok")
            else:
                self._count("serve.requests.budget_exceeded")
            self._record(job.request_id, job.request, payload, spans)
            job.loop.call_soon_threadsafe(_resolve, job.future, payload, None)

    def _execute(self, request: RunRequest) -> Dict[str, Any]:
        budget = (
            request.budget_seconds
            if request.budget_seconds is not None
            else self.config.default_budget_seconds
        )
        deadline = time.monotonic() + budget if budget is not None else None
        outcome = self.executor.run_one(request.config, deadline=deadline)
        if isinstance(outcome, ExperimentResult):
            payload = result_payload(outcome)
            self._response_put(request_cache_key(request), payload)
            return payload
        return partial_payload(outcome)

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
            while len(self._responses) > self.config.response_cache_size:
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
            while len(self._records) > self.config.trace_history:
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
            "queue_depth": self._queue.qsize(),
            "queue_size": self.config.queue_size,
            "workers": self.config.workers,
            "requests_total": registry.counter("serve.requests.total").value,
            "cache_enabled": self.runner.artifacts is not None,
        }


def _resolve(future: "asyncio.Future", payload, error) -> None:
    if future.done():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(payload)
