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
The front end's HTTP behaviour (keep-alive, 404/405/413, a malformed
request line, ``Connection: close``) is pinned against an idle daemon.

Each daemon serves from a background thread.  The tests speak to it
with the standard library's :mod:`http.client`, or a raw socket where
the request is deliberately malformed, and put several requests in
flight from a thread pool.
"""

import contextlib
import http.client
import json
import socket
import statistics
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.harness.experiment import OUTCOMES, STAGE_KINDS, ExperimentRunner
from repro.obs import check_snapshot, reset_registry
from repro.serve import (
    QueueFullError,
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


@contextlib.contextmanager
def _daemon(config):
    """Serve ``config`` from a background thread; yields
    ``(state, address)`` and shuts the daemon down on exit."""
    server = ReproServer(ServerState(config))
    # A short poll interval: shutdown() waits up to one interval.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield server.state, server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive(), "serve_forever did not stop"


@pytest.fixture
def address():
    """An idle daemon's address, for tests that run no experiment."""
    with _daemon(ServeConfig(port=0, workers=1, no_cache=True)) as (_, where):
        yield where


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


def _raw(address, request):
    """Send raw ``request`` bytes and read until the daemon closes the
    connection: ``(head, body)``.  A daemon that keeps the connection
    open fails the read with a timeout."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head, body


def _post(address, doc):
    status, headers, data = _round_trip(address, "POST", "/v1/run", doc)
    return status, headers, json.loads(data)


def _get(address, path):
    status, _, data = _round_trip(address, "GET", path)
    return status, data


def _get_json(address, path):
    status, data = _get(address, path)
    return status, json.loads(data)


def test_daemon_end_to_end(capfd):
    registry = reset_registry()
    config = ServeConfig(
        port=0,
        workers=2,
        no_cache=True,
        max_instructions=MAX_INSTRUCTIONS,
    )

    with _daemon(config) as (_, address), ThreadPoolExecutor(2) as clients:
        # Two workloads in flight concurrently.
        responses = list(
            clients.map(
                lambda name: _post(address, {"workload": name}), WORKLOADS
            )
        )
        for (status, headers, payload), name in zip(responses, WORKLOADS):
            assert status == 200, payload
            assert payload["status"] == "ok"
            assert payload["workload"] == name
            assert headers.get("x-request-id", "").startswith("r")

        # Repeat submission: run again, every stage from the runner's
        # memo.  Only its own timings differ.
        status, headers, repeat = _post(address, {"workload": WORKLOADS[0]})
        assert status == 200
        assert repeat["status"] == "ok"
        assert _without_timings(repeat) == _without_timings(responses[0][2])
        assert headers["x-request-id"] != responses[0][1]["x-request-id"]

        # Span tree of a completed request is queryable by id.
        status, trace = _get_json(
            address, "/trace/" + responses[0][1]["x-request-id"]
        )
        assert status == 200
        assert trace["workload"] == WORKLOADS[0]
        assert trace["spans"]["name"] == "request"
        assert trace["spans"]["children"], "request span has no children"
        # The repeat ran on the pool too, so it has its own span.
        status, trace = _get_json(address, "/trace/" + headers["x-request-id"])
        assert status == 200
        assert trace["cached"] is False
        assert trace["spans"]["name"] == "request"
        status, _ = _get_json(address, "/trace/nope")
        assert status == 404

        # Budget-starved request: well-formed truncation.
        status, _, starved = _post(
            address, {"workload": "twolf", "budget_seconds": 1e-9}
        )
        assert status == 200
        assert starved["status"] == "budget_exceeded"
        assert starved["budget_exceeded"] is True
        assert starved["next_stage"] == "trace"
        assert starved["stages_completed"] == []
        assert starved["workload"] == "twolf"

        status, health = _get_json(address, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["cache_enabled"] is False
        assert health["requests_total"] == 4

        # The metrics snapshot passes the `repro obs check` gate and
        # the Prometheus exposition carries the serve counters.
        status, snapshot = _get_json(address, "/metrics/json")
        assert status == 200
        assert check_snapshot(snapshot) == []
        status, prom = _get(address, "/metrics")
        assert status == 200
        text = prom.decode("utf-8")
        assert "serve_requests_total" in text
        assert "functional_runs" in text
    served = [payload for _, _, payload in responses]
    # No connection thread died with a traceback.
    assert "Traceback" not in capfd.readouterr().err

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


def _queue_depth(address):
    status, health = _get_json(address, "/healthz")
    assert status == 200
    return health["queue_depth"]


def _fill(clients, address, running, doc):
    """Fill a one-worker, one-slot daemon with two submissions of
    ``doc``: the first waits on the stalled thread, the second in the
    queue.  Returns their pending responses."""
    held = [clients.submit(_post, address, doc)]
    assert running.wait(timeout=120), "no request reached the pool"
    held.append(clients.submit(_post, address, doc))
    while _queue_depth(address) != 1:
        time.sleep(0.01)
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

    with _daemon(config) as (state, address), ThreadPoolExecutor(2) as clients:
        running, release = _stall(state)
        try:
            held = _fill(clients, address, running, {"workload": "mcf"})

            # One request runs and one waits: the daemon is full.
            status, headers, payload = _post(address, {"workload": "mcf"})
            assert status == 503
            assert headers["retry-after"] == "1"
            assert payload["status"] == "rejected"
            assert payload["error"] == "request queue full"

            # Malformed documents are a 400, not a shed.
            status, _, payload = _post(
                address, {"workload": "not-a-benchmark"}
            )
            assert status == 400
            assert payload["status"] == "error"

            release.set()
            for future in held:
                status, _, payload = future.result()
                assert status == 200, payload
                assert payload["status"] == "ok"
        finally:
            release.set()


def test_failed_request_answers_500_and_frees_its_slot():
    registry = reset_registry()
    config = ServeConfig(
        port=0,
        workers=1,
        queue_size=1,
        no_cache=True,
        max_instructions=MAX_INSTRUCTIONS,
    )

    with _daemon(config) as (state, address), ThreadPoolExecutor(2) as clients:
        run = state.runner.run

        def failing_run(config, deadline=None):
            if config.workload == "twolf":
                raise RuntimeError("pipeline failed")
            return run(config, deadline=deadline)

        state.runner.run = failing_run
        release = threading.Event()
        try:
            status, _, payload = _post(address, {"workload": "twolf"})
            assert status == 500
            assert payload["error"] == "experiment failed: pipeline failed"
            assert _queue_depth(address) == 0

            # Both slots are free again: two submissions are admitted
            # and the third is shed.  A starved budget answers as soon
            # as the thread is released.
            running, release = _stall(state)
            starved = {"workload": "mcf", "budget_seconds": 1e-9}
            held = _fill(clients, address, running, starved)
            status, _, _ = _post(address, starved)
            assert status == 503

            release.set()
            for future in held:
                status, _, payload = future.result()
                assert status == 200, payload
                assert payload["status"] == "budget_exceeded"
        finally:
            release.set()
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


def test_admission_holds_under_concurrent_submitters(fresh_obs):
    """Connection threads admit under one lock: with eight submitters
    racing over two workers and two slots, no run sees more than
    ``workers + queue_size`` admitted, every admission is undone once,
    and each submission is either answered or shed."""
    _, registry = fresh_obs
    state = ServerState(ServeConfig(workers=2, queue_size=2, no_cache=True))
    admitted = []

    def execute(request):
        admitted.append(state._admitted)
        return {"status": "ok"}

    state._execute = execute
    request = parse_run_request({"workload": "mcf"})
    outcomes = []

    def submitter():
        for _ in range(50):
            try:
                state.submit(request)
                outcomes.append("ok")
            except QueueFullError:
                outcomes.append("rejected")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        state.close()
    assert len(outcomes) == 400
    assert max(admitted) <= 4
    assert state._admitted == 0
    assert registry.counter("serve.requests.ok").value == outcomes.count("ok")
    assert registry.counter("serve.requests.rejected").value == outcomes.count(
        "rejected"
    )


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
def test_bad_content_length_gets_400(address, length):
    """A negative length is as malformed as a non-numeric one: the
    client gets a 400, not a dropped connection."""
    head, body = _raw(
        address,
        f"POST /v1/run HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode(
            "latin-1"
        ),
    )
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["error"] == "bad content-length"


def test_keep_alive_serves_three_requests_on_one_connection(address):
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        sock = None
        for _ in range(3):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
            sock = sock or conn.sock
            assert conn.sock is sock, "the daemon closed the connection"
    finally:
        conn.close()


def test_keep_alive_replies_are_not_delayed(address):
    """Each reply goes out whole at once: with Nagle's algorithm on,
    a reply written as a head then a body waited for the client's
    delayed ACK, about 40 ms a request on one connection."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    seconds = []
    try:
        for _ in range(50):
            start = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            seconds.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(seconds) < 0.02


@pytest.mark.parametrize(
    "method, path, allow", [("GET", "/v1/run", "POST"), ("POST", "/healthz", "GET")]
)
def test_wrong_method_gets_405_with_allow(address, method, path, allow):
    status, headers, data = _round_trip(address, method, path)
    assert status == 405
    assert headers["allow"] == allow
    assert json.loads(data)["status"] == "error"


def test_oversized_body_gets_413(address):
    head, body = _raw(
        address, b"POST /v1/run HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n"
    )
    assert head.startswith(b"HTTP/1.1 413 ")
    assert json.loads(body)["status"] == "error"


def test_one_word_request_line_gets_400_with_status_line(address):
    head, body = _raw(address, b"GARBAGE\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["status"] == "error"


@pytest.mark.parametrize("path", ["/no/such/route", "/trace/r999999"])
def test_unknown_route_or_trace_gets_404(address, path):
    status, _, data = _round_trip(address, "GET", path)
    assert status == 404
    assert json.loads(data)["status"] == "error"


def test_connection_close_closes_after_the_reply(address):
    head, body = _raw(
        address, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    assert head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(body)["status"] == "ok"


def test_client_hang_up_prints_no_traceback(capfd):
    """A client that resets its connection before the reply costs the
    daemon no traceback: the failed write ends the connection quietly."""
    server = ReproServer(
        ServerState(ServeConfig(port=0, workers=1, no_cache=True))
    )
    # Non-daemon connection threads are joined by server_close(), so
    # the failed write has happened by the time stderr is read.
    server.daemon_threads = False
    running, release = _stall(server.state)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=10) as sock:
            # Close with a reset, not a FIN.
            linger = struct.pack("ii", 1, 0)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
            body = b'{"workload": "mcf"}'
            sock.sendall(
                b"POST /v1/run HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            assert running.wait(timeout=60), "no request reached the pool"
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert "Traceback" not in capfd.readouterr().err


def test_served_metrics_count_each_stage_once(fresh_obs, capfd):
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

    snapshots = []
    with _daemon(config) as (state, address):
        for scope in (64, 128, 256, 64):
            status, _, payload = _post(
                address,
                {"workload": "mcf", "constraints": {"scope": scope}},
            )
            assert status == 200 and payload["status"] == "ok", payload
            status, snapshot = _get_json(address, "/metrics/json")
            assert status == 200
            snapshots.append(snapshot)
    assert "Traceback" not in capfd.readouterr().err
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
