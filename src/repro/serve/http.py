"""HTTP/1.1 front end for the serve daemon, on :mod:`http.server`.

The repository has no web framework dependency and the API surface is
five routes:

================  ======  =============================================
``/v1/run``       POST    submit a workload/scenario JSON document
``/healthz``      GET     liveness + queue depth
``/metrics``      GET     Prometheus text exposition (repro.obs)
``/metrics/json`` GET     metrics snapshot document (``repro obs check``)
``/trace/<id>``   GET     span tree of a completed request
================  ======  =============================================

``POST /v1/run`` answers 200 with the experiment payload (the request
id travels in the ``X-Request-Id`` header so the body stays bit-for-bit
identical to the offline pipeline's payload), 400 on a malformed
document, and 503 + ``Retry-After`` when admission sheds load.  Each
connection has its own thread, which waits for its run on the state's
pool.  Connections are keep-alive; a ``Connection: close`` header or an
error that :meth:`_Handler.send_error` answers closes them.  Every
error body, the standard library's own parse errors included, is an
``error_payload`` JSON document.
"""

from __future__ import annotations

import asyncio
import json
import socketserver
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.obs import to_prometheus
from repro.serve.protocol import (
    error_payload,
    parse_run_request,
)
from repro.serve.state import QueueFullError, ServeConfig, ServerState

#: Largest request body the daemon reads; a longer one gets a 413.
_MAX_BODY_BYTES = 1 << 20
#: Seconds a shed client is told to wait before it retries.
_RETRY_AFTER_SECONDS = 1

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_CONTENT_TYPE = "application/json"

_Reply = Tuple[int, bytes, str, Dict[str, str]]


def _json(
    status: int,
    payload: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> _Reply:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return status, body, _JSON_CONTENT_TYPE, headers or {}


def _route(
    state: ServerState, method: str, target: str, body: bytes
) -> _Reply:
    path = target.split("?", 1)[0]
    if path == "/v1/run":
        if method != "POST":
            return _json(405, error_payload("use POST"), {"Allow": "POST"})
        return _route_run(state, body)
    if method != "GET":
        return _json(405, error_payload("use GET"), {"Allow": "GET"})
    if path == "/healthz":
        return _json(200, state.health())
    if path == "/metrics":
        text = to_prometheus(state.metrics_document()["metrics"])
        return 200, text.encode("utf-8"), _PROM_CONTENT_TYPE, {}
    if path == "/metrics/json":
        doc = state.metrics_document()
        return (
            200,
            (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(),
            _JSON_CONTENT_TYPE,
            {},
        )
    if path.startswith("/trace/"):
        request_id = path[len("/trace/"):]
        record = state.trace_record(request_id)
        if record is None:
            message = f"no trace for request {request_id!r}"
            return _json(404, error_payload(message))
        return _json(200, record)
    return _json(404, error_payload(f"no route {path!r}"))


def _route_run(state: ServerState, body: bytes) -> _Reply:
    try:
        doc = json.loads(body.decode("utf-8")) if body else None
        request = parse_run_request(doc)
    except (ValueError, UnicodeDecodeError) as error:
        return _json(400, error_payload(str(error)))
    try:
        request_id, payload = state.submit(request)
    except QueueFullError:
        return _json(
            503,
            error_payload("request queue full", status="rejected"),
            {"Retry-After": str(_RETRY_AFTER_SECONDS)},
        )
    except Exception as error:
        return _json(500, error_payload(f"experiment failed: {error}"))
    return _json(200, payload, {"X-Request-Id": request_id})


class _Handler(BaseHTTPRequestHandler):
    """One connection's requests, routed into the server's state."""

    server: "ReproServer"
    protocol_version = "HTTP/1.1"
    # A request line too malformed to name a version is still answered
    # with a status line; the default, HTTP/0.9, sends a bare body.
    default_request_version = "HTTP/1.1"
    # The head and the body are two writes.  With Nagle's algorithm on,
    # the body waited for the client's delayed ACK: a keep-alive
    # GET /healthz took 44 ms median instead of under 0.1 ms.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:
        body = self._read_body()
        if body is not None:
            state = self.server.state
            self._respond(*_route(state, self.command, self.path, body))

    do_POST = do_GET

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once an error is answered."""
        length = self.headers.get("Content-Length")
        if length is None:
            return b""
        try:
            nbytes = int(length)
        except ValueError:
            nbytes = -1
        if nbytes < 0:
            self.send_error(400, "bad content-length")
            return None
        if nbytes > _MAX_BODY_BYTES:
            self.send_error(413, "request body too large")
            return None
        return self.rfile.read(nbytes)

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Dict[str, str],
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """Answer an error as JSON and close the connection: an unread
        body would otherwise be read as the next request."""
        self.close_connection = True
        message = message or HTTPStatus(code).phrase
        self._respond(*_json(code, error_payload(message)))

    def log_message(self, format: str, *args: Any) -> None:
        """No access log: ``/metrics`` counts the requests."""


class ReproServer(ThreadingHTTPServer):
    """The listening socket; a thread per connection routes its
    requests into ``state``.

    Connection threads are daemon threads (``ThreadingHTTPServer``'s
    default), so closing the server does not wait for an idle keep-alive
    connection, whose thread blocks in a read until its client hangs up.
    """

    def __init__(self, state: ServerState) -> None:
        self.state = state
        super().__init__((state.config.host, state.config.port), _Handler)

    def server_bind(self) -> None:
        # HTTPServer's own also resolves the host's FQDN, a DNS lookup
        # whose answer nothing here reads.
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]

    def server_close(self) -> None:
        """Close the socket, then the pool: queued requests are cancelled."""
        super().server_close()
        self.state.close()

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that hangs up mid-request is not the daemon's fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


async def run_server(config: ServeConfig, ready=None) -> None:
    """Build state + server, announce readiness, serve until cancelled.

    A coroutine because ``repro serve`` and perfbench's launcher run it
    under :func:`asyncio.run` and stop it by cancelling its task; the
    cancellation propagates once the server is closed.  The accept loop
    runs on its own thread, which ``shutdown`` stops.
    """
    server = ReproServer(ServerState(config))
    accept = threading.Thread(
        target=server.serve_forever, name="repro-serve-accept", daemon=True
    )
    accept.start()
    if ready is not None:
        ready(*server.server_address[:2])
    try:
        await asyncio.get_running_loop().create_future()
    finally:
        server.shutdown()
        server.server_close()
