"""End-to-end tests for the serve daemon.

One in-process daemon (ephemeral port, persistent caches disabled so
the full pipeline actually runs) serves two workloads concurrently; the
payloads are compared bit-for-bit against the offline
:class:`~repro.harness.experiment.ExperimentRunner` building the same
``result_payload`` — excluding ``timings``, the only wall-clock field.
The same daemon then runs a repeat request from the runner's stage
memo, a budget-starved request with a truncated-but-well-formed
payload, and a metrics scrape that passes the ``repro obs check``
catalog gate.  Backpressure (503 + ``Retry-After``) is pinned in a
second daemon with one worker thread, stalled, and one queue slot.

The tests speak to the daemon with the standard library's
:mod:`http.client`, one connection per request, each blocking call
on a thread (``asyncio.to_thread``) so several can be in flight.
"""

import asyncio
import http.client
import json
import logging
import threading

import pytest

from repro.harness.experiment import OUTCOMES, STAGE_KINDS, ExperimentRunner
from repro.obs import check_snapshot, reset_registry
from repro.serve import (
    ReproServer,
    ServeConfig,
    ServerState,
    parse_run_request,
    result_payload,
)

#: Small instruction cap keeps each full pipeline run test-sized.
MAX_INSTRUCTIONS = 120_000
WORKLOADS = ("mcf", "vpr.r")


def _jsonify(payload):
    """Normalize a Python payload the way the HTTP layer serializes it."""
    return json.loads(json.dumps(payload, sort_keys=True))


def _without_timings(payload):
    clone = dict(payload)
    clone.pop("timings", None)
    return clone


def _asyncio_errors(caplog):
    """ERROR records the ``asyncio`` logger emitted during the test."""
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]


async def _start_daemon(config):
    state = ServerState(config)
    server = ReproServer(state)
    await server.start()
    return state, server


def _round_trip(address, method, path, doc=None):
    """One request on its own connection: ``(status, headers, body)``."""
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        conn.request(method, path, body)
        response = conn.getresponse()
        data = response.read()
        headers = {name.lower(): value for name, value in response.getheaders()}
        return response.status, headers, data
    finally:
        conn.close()


async def _post(address, doc):
    status, headers, data = await asyncio.to_thread(
        _round_trip, address, "POST", "/v1/run", doc
    )
    return status, headers, json.loads(data)


async def _get(address, path):
    status, _, data = await asyncio.to_thread(_round_trip, address, "GET", path)
    return status, data


async def _get_json(address, path):
    status, data = await _get(address, path)
    return status, json.loads(data)


def test_daemon_end_to_end(caplog):
    registry = reset_registry()
    config = ServeConfig(
        port=0,
        workers=2,
        no_cache=True,
        max_instructions=MAX_INSTRUCTIONS,
    )

    async def scenario():
        _, server = await _start_daemon(config)
        address = server.address
        try:
            # Two workloads in flight concurrently.
            responses = await asyncio.gather(
                *(_post(address, {"workload": name}) for name in WORKLOADS)
            )
            for (status, headers, payload), name in zip(responses, WORKLOADS):
                assert status == 200, payload
                assert payload["status"] == "ok"
                assert payload["workload"] == name
                assert headers.get("x-request-id", "").startswith("r")

            # Repeat submission: run again, every stage from the
            # runner's memo.  Only its own timings differ.
            status, headers, repeat = await _post(
                address, {"workload": WORKLOADS[0]}
            )
            assert status == 200
            assert repeat["status"] == "ok"
            assert _without_timings(repeat) == _without_timings(
                responses[0][2]
            )
            assert headers["x-request-id"] != responses[0][1]["x-request-id"]

            # Span tree of a completed request is queryable by id.
            status, trace = await _get_json(
                address, "/trace/" + responses[0][1]["x-request-id"]
            )
            assert status == 200
            assert trace["workload"] == WORKLOADS[0]
            assert trace["spans"]["name"] == "request"
            assert trace["spans"]["children"], "request span has no children"
            # The repeat ran on the pool too, so it has its own span.
            status, trace = await _get_json(
                address, "/trace/" + headers["x-request-id"]
            )
            assert status == 200
            assert trace["cached"] is False
            assert trace["spans"]["name"] == "request"
            status, _ = await _get_json(address, "/trace/nope")
            assert status == 404

            # Budget-starved request: well-formed truncation.
            status, _, starved = await _post(
                address, {"workload": "twolf", "budget_seconds": 1e-9}
            )
            assert status == 200
            assert starved["status"] == "budget_exceeded"
            assert starved["budget_exceeded"] is True
            assert starved["next_stage"] == "trace"
            assert starved["stages_completed"] == []
            assert starved["workload"] == "twolf"

            status, health = await _get_json(address, "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["cache_enabled"] is False
            assert health["requests_total"] == 4

            # The metrics snapshot passes the `repro obs check` gate and
            # the Prometheus exposition carries the serve counters.
            status, snapshot = await _get_json(address, "/metrics/json")
            assert status == 200
            assert check_snapshot(snapshot) == []
            status, prom = await _get(address, "/metrics")
            assert status == 200
            text = prom.decode("utf-8")
            assert "serve_requests_total" in text
            assert "functional_runs" in text
        finally:
            await server.close()
        return [payload for _, _, payload in responses]

    served = asyncio.run(scenario())
    # The loop's teardown cancels idle keep-alive handlers; they end
    # like dropped connections, with nothing logged.
    assert _asyncio_errors(caplog) == []

    # Offline equivalence: the same configs through a fresh offline
    # runner yield bit-for-bit the bodies the daemon sent, minus
    # wall-clock.
    offline = ExperimentRunner(
        max_instructions=MAX_INSTRUCTIONS, artifacts=None
    )
    for name, payload in zip(WORKLOADS, served):
        config = parse_run_request({"workload": name}).config
        expected = _jsonify(result_payload(offline.run(config)))
        assert _without_timings(payload) == _without_timings(expected)

    assert registry.get("serve.requests.ok").value == 3
    assert registry.get("serve.requests.budget_exceeded").value == 1


def _stall(state):
    """Hold each request on its pool thread until ``release`` is set.

    Returns ``(running, release)``; ``running`` is set once a request
    waits on its thread.
    """
    running, release = threading.Event(), threading.Event()
    execute = state._execute

    def stalled(request):
        running.set()
        release.wait()
        return execute(request)

    state._execute = stalled
    return running, release


async def _queue_depth(address):
    status, health = await _get_json(address, "/healthz")
    assert status == 200
    return health["queue_depth"]


async def _fill(address, running, doc):
    """Fill a one-worker, one-slot daemon with two submissions of
    ``doc``: the first waits on the stalled thread, the second in the
    queue.  Returns their pending responses."""
    held = [asyncio.create_task(_post(address, doc))]
    while not running.is_set():
        await asyncio.sleep(0.01)
    held.append(asyncio.create_task(_post(address, doc)))
    while await _queue_depth(address) != 1:
        await asyncio.sleep(0.01)
    return held


def test_backpressure_sheds_with_503_and_retry_after():
    reset_registry()
    config = ServeConfig(
        port=0,
        workers=1,
        queue_size=1,
        no_cache=True,
        max_instructions=MAX_INSTRUCTIONS,
    )

    async def scenario():
        state, server = await _start_daemon(config)
        address = server.address
        running, release = _stall(state)
        held = []
        try:
            held = await _fill(address, running, {"workload": "mcf"})

            # One request runs and one waits: the daemon is full.
            status, headers, payload = await _post(
                address, {"workload": "mcf"}
            )
            assert status == 503
            assert headers["retry-after"] == "1"
            assert payload["status"] == "rejected"
            assert payload["error"] == "request queue full"

            # Malformed documents are a 400, not a shed.
            status, _, payload = await _post(
                address, {"workload": "not-a-benchmark"}
            )
            assert status == 400
            assert payload["status"] == "error"

            release.set()
            for status, _, payload in await asyncio.gather(*held):
                assert status == 200, payload
                assert payload["status"] == "ok"
        finally:
            release.set()
            await asyncio.gather(*held, return_exceptions=True)
            await server.close()

    asyncio.run(scenario())


def test_failed_request_answers_500_and_frees_its_slot():
    registry = reset_registry()
    config = ServeConfig(
        port=0,
        workers=1,
        queue_size=1,
        no_cache=True,
        max_instructions=MAX_INSTRUCTIONS,
    )

    async def scenario():
        state, server = await _start_daemon(config)
        address = server.address
        run = state.runner.run

        def failing_run(config, deadline=None):
            if config.workload == "twolf":
                raise RuntimeError("pipeline failed")
            return run(config, deadline=deadline)

        state.runner.run = failing_run
        release = threading.Event()
        held = []
        try:
            status, _, payload = await _post(address, {"workload": "twolf"})
            assert status == 500
            assert payload["error"] == "experiment failed: pipeline failed"
            assert await _queue_depth(address) == 0

            # Both slots are free again: two submissions are admitted
            # and the third is shed.  A starved budget answers as soon
            # as the thread is released.
            running, release = _stall(state)
            starved = {"workload": "mcf", "budget_seconds": 1e-9}
            held = await _fill(address, running, starved)
            status, _, _ = await _post(address, starved)
            assert status == 503

            release.set()
            for status, _, payload in await asyncio.gather(*held):
                assert status == 200, payload
                assert payload["status"] == "budget_exceeded"
        finally:
            release.set()
            await asyncio.gather(*held, return_exceptions=True)
            await server.close()

    asyncio.run(scenario())
    assert registry.get("serve.requests.errors").value == 1
    assert registry.get("serve.requests.rejected").value == 1


def test_failed_requests_leave_no_span_behind(fresh_obs):
    """A request whose pipeline raises counts an error and takes its
    span off the process tracer, as a finished one does."""
    tracer, registry = fresh_obs
    state = ServerState(ServeConfig(no_cache=True))

    def failing_run(config, deadline=None):
        raise RuntimeError("pipeline failed")

    state.runner.run = failing_run
    request = parse_run_request({"workload": "mcf"})
    try:
        for index in range(3):
            with pytest.raises(RuntimeError, match="pipeline failed"):
                state._run_job(f"r{index}", request)
    finally:
        state.close()
    assert registry.counter("serve.requests.errors").value == 3
    assert [span.name for span in tracer.root.children] == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": 0},
        {"queue_size": -3},
        {"max_instructions": 0},
        {"default_budget_seconds": -1},
        {"default_budget_seconds": 0},
        {"default_budget_seconds": float("nan")},
        {"default_budget_seconds": float("inf")},
    ],
)
def test_serve_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        ServeConfig(**kwargs)


@pytest.mark.parametrize("length", ["-1", "ten"])
def test_bad_content_length_gets_400(length):
    """A negative length is as malformed as a non-numeric one: the
    client gets a 400, not a dropped connection."""

    async def scenario():
        state, server = await _start_daemon(
            ServeConfig(port=0, workers=1, no_cache=True)
        )
        try:
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(
                (
                    "POST /v1/run HTTP/1.1\r\n"
                    f"Content-Length: {length}\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            response = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return response

    response = asyncio.run(scenario())
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["error"] == "bad content-length"


def test_served_metrics_count_each_stage_once(fresh_obs, caplog):
    """Three mcf requests at three scopes, then a repeat of the first:
    the first computes the trace, baseline, selection and timing
    stages; the next two hit the trace and baseline in memory and
    compute selection and timing; the repeat runs again and hits all
    four stages in memory.  The served counts say exactly that,
    however often ``/metrics`` is read.
    """
    config = ServeConfig(
        port=0, workers=1, no_cache=True, max_instructions=300_000
    )

    async def scenario():
        state, server = await _start_daemon(config)
        address = server.address
        snapshots = []
        try:
            for scope in (64, 128, 256, 64):
                status, _, payload = await _post(
                    address,
                    {"workload": "mcf", "constraints": {"scope": scope}},
                )
                assert status == 200 and payload["status"] == "ok", payload
                status, snapshot = await _get_json(address, "/metrics/json")
                assert status == 200
                snapshots.append(snapshot)
        finally:
            await server.close()
        return state, snapshots

    state, snapshots = asyncio.run(scenario())
    assert _asyncio_errors(caplog) == []
    assert check_snapshot(snapshots[0]) == []
    metrics = snapshots[-1]["metrics"]
    assert metrics["harness.cache.misses"]["value"] == 8
    assert metrics["harness.cache.hits"]["value"] == 8
    assert metrics["serve.requests.ok"]["value"] == 4
    assert metrics["harness.cache.disk_hits"]["value"] == 0
    # Each total is the sum of its per-kind counts.
    for outcome in OUTCOMES:
        assert metrics[f"harness.cache.{outcome}"]["value"] == sum(
            metrics[f"harness.stage.{kind}.{outcome}"]["value"]
            for kind in STAGE_KINDS
        )
    (trace,) = (
        value
        for (kind, _), value in state.runner._memo.items()
        if kind == "trace"
    )
    assert (
        metrics["harness.stage.trace.instructions"]["value"]
        == trace.instructions
    )
