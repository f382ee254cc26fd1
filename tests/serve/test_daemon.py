"""End-to-end tests for the serve daemon.

One in-process daemon (ephemeral port, persistent caches disabled so
the full pipeline actually runs) serves two workloads concurrently; the
payloads are compared bit-for-bit against the offline
:class:`~repro.harness.experiment.ExperimentRunner` building the same
``result_payload`` — excluding ``timings``, the only wall-clock field.
The same daemon then answers a repeat request from the response cache,
a budget-starved request with a truncated-but-well-formed payload, and
a metrics scrape that passes the ``repro obs check`` catalog gate.
Backpressure (503 + ``Retry-After``) is pinned in a second, stalled
daemon whose queue holds a single entry.
"""

import asyncio
import json

import pytest

from repro.harness.experiment import OUTCOMES, STAGE_KINDS, ExperimentRunner
from repro.obs import check_snapshot, reset_registry
from repro.serve import (
    ReproServer,
    ServeClient,
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


async def _start_daemon(config):
    state = ServerState(config)
    server = ReproServer(state)
    await server.start()
    return state, server


def test_daemon_end_to_end():
    registry = reset_registry()
    config = ServeConfig(
        port=0,
        workers=2,
        no_cache=True,
        max_instructions=MAX_INSTRUCTIONS,
    )

    async def scenario():
        state, server = await _start_daemon(config)
        try:
            host, port = server.address
            clients = [ServeClient(host, port) for _ in WORKLOADS]

            # Two workloads in flight concurrently (satellite: the e2e
            # asyncio test drives >1 submission at once).
            responses = await asyncio.gather(
                *(
                    client.post_json("/v1/run", {"workload": name})
                    for client, name in zip(clients, WORKLOADS)
                )
            )
            for (status, headers, payload), name in zip(responses, WORKLOADS):
                assert status == 200, payload
                assert payload["status"] == "ok"
                assert payload["workload"] == name
                assert headers.get("x-request-id", "").startswith("r")

            # Repeat submission: served from the response cache, byte-
            # identical (timings included — it is the same payload).
            status, headers, repeat = await clients[0].post_json(
                "/v1/run", {"workload": WORKLOADS[0]}
            )
            assert status == 200
            assert repeat == responses[0][2]
            assert headers["x-request-id"] != responses[0][1]["x-request-id"]

            # Span tree of a completed request is queryable by id.
            status, trace = await clients[0].get_json(
                "/trace/" + responses[0][1]["x-request-id"]
            )
            assert status == 200
            assert trace["workload"] == WORKLOADS[0]
            assert trace["spans"]["name"] == "request"
            assert trace["spans"]["children"], "request span has no children"
            status, _ = await clients[0].get_json("/trace/nope")
            assert status == 404

            # Budget-starved request on a *fresh* workload (the response
            # cache would answer a cached one): well-formed truncation.
            status, _, starved = await clients[1].post_json(
                "/v1/run", {"workload": "twolf", "budget_seconds": 1e-9}
            )
            assert status == 200
            assert starved["status"] == "budget_exceeded"
            assert starved["budget_exceeded"] is True
            assert starved["next_stage"] == "trace"
            assert starved["stages_completed"] == []
            assert starved["workload"] == "twolf"

            status, health = await clients[0].get_json("/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["cache_enabled"] is False
            assert health["requests_total"] >= 4

            # The metrics snapshot passes the `repro obs check` gate and
            # the Prometheus exposition carries the serve counters.
            status, snapshot = await clients[0].get_json("/metrics/json")
            assert status == 200
            assert check_snapshot(snapshot) == []
            status, _, prom = await clients[0].get("/metrics")
            assert status == 200
            text = prom.decode("utf-8")
            assert "serve_requests_total" in text
            assert "functional_runs" in text

            for client in clients:
                await client.close()
        finally:
            await server.close()
        return state

    state = asyncio.run(scenario())

    # Offline equivalence: the same configs through a fresh offline
    # runner yield bit-for-bit the served payloads, minus wall-clock.
    offline = ExperimentRunner(
        max_instructions=MAX_INSTRUCTIONS, artifacts=None
    )

    # The daemon is gone, but its response cache holds the exact "ok"
    # payloads it served, keyed by config.
    from repro.serve.protocol import request_cache_key

    for name in WORKLOADS:
        request = parse_run_request({"workload": name})
        cached = state._response_get(request_cache_key(request))
        assert cached is not None, f"no served payload cached for {name}"
        expected = _jsonify(result_payload(offline.run(request.config)))
        assert _without_timings(_jsonify(cached)) == _without_timings(expected)

    assert registry.get("serve.requests.cache_hits").value >= 1
    assert registry.get("serve.requests.budget_exceeded").value >= 1


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
        state = ServerState(config)
        state.start_workers = lambda: None  # stall: nothing drains the queue
        server = ReproServer(state)
        await server.start()
        blocked = None
        try:
            host, port = server.address
            first = ServeClient(host, port)
            second = ServeClient(host, port)

            # First submission fills the one-slot queue and never
            # completes (no workers); it must not be shed.
            blocked = asyncio.create_task(
                first.post_json("/v1/run", {"workload": "mcf"})
            )
            while state._queue.qsize() == 0:
                await asyncio.sleep(0.01)

            status, headers, payload = await second.post_json(
                "/v1/run", {"workload": "mcf"}
            )
            assert status == 503
            assert headers["retry-after"] == str(config.retry_after_seconds)
            assert payload["status"] == "rejected"
            assert payload["error"] == "request queue full"

            # Malformed documents are a 400, not a shed.
            status, _, payload = await second.post_json(
                "/v1/run", {"workload": "not-a-benchmark"}
            )
            assert status == 400
            assert payload["status"] == "error"

            await second.close()
            await first.close()
        finally:
            if blocked is not None:
                blocked.cancel()
                await asyncio.gather(blocked, return_exceptions=True)
            await server.close()

    asyncio.run(scenario())


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


def test_served_metrics_count_each_stage_once(fresh_obs):
    """Three mcf requests at three scopes: the first computes the trace,
    baseline, selection and timing stages; the next two hit the trace
    and baseline in memory and compute selection and timing.  The
    served counts say exactly that, however often ``/metrics`` is read.
    """
    config = ServeConfig(
        port=0, workers=1, no_cache=True, max_instructions=300_000
    )

    async def scenario():
        state, server = await _start_daemon(config)
        snapshots = []
        try:
            client = ServeClient(*server.address)
            for scope in (64, 128, 256):
                status, _, payload = await client.post_json(
                    "/v1/run",
                    {"workload": "mcf", "constraints": {"scope": scope}},
                )
                assert status == 200 and payload["status"] == "ok", payload
                status, snapshot = await client.get_json("/metrics/json")
                assert status == 200
                snapshots.append(snapshot)
            await client.close()
        finally:
            await server.close()
        return state, snapshots

    state, snapshots = asyncio.run(scenario())
    assert check_snapshot(snapshots[0]) == []
    metrics = snapshots[-1]["metrics"]
    assert metrics["harness.cache.misses"]["value"] == 8
    assert metrics["harness.cache.hits"]["value"] == 4
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
