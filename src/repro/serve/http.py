"""Minimal asyncio HTTP/1.1 front end for the serve daemon.

Hand-rolled on :func:`asyncio.start_server` — the repository has no web
framework dependency and the API surface is five routes:

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
document, and 503 + ``Retry-After`` when the bounded queue sheds load.
Connections are keep-alive; a ``Connection: close`` header or protocol
error closes them.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.obs import to_prometheus
from repro.serve.protocol import (
    error_payload,
    parse_run_request,
)
from repro.serve.state import QueueFullError, ServeConfig, ServerState

_MAX_LINE = 8192
_MAX_HEADERS = 64
#: Largest request body the daemon reads; a longer one gets a 413.
_MAX_BODY_BYTES = 1 << 20
#: Seconds a shed client is told to wait before it retries.
_RETRY_AFTER_SECONDS = 1

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_CONTENT_TYPE = "application/json"


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class ReproServer:
    """Owns the listening socket and routes requests into the state."""

    def __init__(self, state: ServerState) -> None:
        self.state = state
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.state.config.host,
            port=self.state.config.port,
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.state.close()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Cancellation (the loop's teardown cancelling an idle keep-alive
        # handler) ends the handler like a dropped connection and is not
        # re-raised: nothing awaits this task, and one that ends
        # cancelled makes Python < 3.12's StreamReaderProtocol log an
        # error from its done callback.
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line or len(request_line) > _MAX_LINE:
            return False
        try:
            method, target, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._respond(
                writer, 400, _json_bytes(error_payload("malformed request line"))
            )
            return False
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = await reader.readline()
            if not line or len(line) > _MAX_LINE:
                return False
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            await self._respond(
                writer, 400, _json_bytes(error_payload("too many headers"))
            )
            return False
        keep_alive = (
            headers.get("connection", "keep-alive").lower() != "close"
            and version != "HTTP/1.0"
        )
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                nbytes = int(length)
            except ValueError:
                nbytes = -1
            if nbytes < 0:
                await self._respond(
                    writer, 400,
                    _json_bytes(error_payload("bad content-length")),
                )
                return False
            if nbytes > _MAX_BODY_BYTES:
                await self._respond(
                    writer, 413,
                    _json_bytes(error_payload("request body too large")),
                )
                return False
            if nbytes:
                body = await reader.readexactly(nbytes)
        status, payload_bytes, content_type, extra = await self._route(
            method, target, body
        )
        await self._respond(
            writer, status, payload_bytes, content_type, extra, keep_alive
        )
        return keep_alive

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        path = target.split("?", 1)[0]
        if path == "/v1/run":
            if method != "POST":
                return (
                    405,
                    _json_bytes(error_payload("use POST")),
                    _JSON_CONTENT_TYPE,
                    {"Allow": "POST"},
                )
            return await self._route_run(body)
        if method != "GET":
            return (
                405,
                _json_bytes(error_payload("use GET")),
                _JSON_CONTENT_TYPE,
                {"Allow": "GET"},
            )
        if path == "/healthz":
            return (
                200,
                _json_bytes(self.state.health()),
                _JSON_CONTENT_TYPE,
                {},
            )
        if path == "/metrics":
            doc = self.state.metrics_document()
            text = to_prometheus(doc["metrics"])
            return 200, text.encode("utf-8"), _PROM_CONTENT_TYPE, {}
        if path == "/metrics/json":
            doc = self.state.metrics_document()
            return (
                200,
                (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(),
                _JSON_CONTENT_TYPE,
                {},
            )
        if path.startswith("/trace/"):
            request_id = path[len("/trace/"):]
            record = self.state.trace_record(request_id)
            if record is None:
                return (
                    404,
                    _json_bytes(
                        error_payload(f"no trace for request {request_id!r}")
                    ),
                    _JSON_CONTENT_TYPE,
                    {},
                )
            return 200, _json_bytes(record), _JSON_CONTENT_TYPE, {}
        return (
            404,
            _json_bytes(error_payload(f"no route {path!r}")),
            _JSON_CONTENT_TYPE,
            {},
        )

    async def _route_run(
        self, body: bytes
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        try:
            doc = json.loads(body.decode("utf-8")) if body else None
            request = parse_run_request(doc)
        except (ValueError, UnicodeDecodeError) as error:
            return (
                400,
                _json_bytes(error_payload(str(error))),
                _JSON_CONTENT_TYPE,
                {},
            )
        try:
            request_id, payload = await self.state.submit(request)
        except QueueFullError:
            return (
                503,
                _json_bytes(
                    error_payload("request queue full", status="rejected")
                ),
                _JSON_CONTENT_TYPE,
                {"Retry-After": str(_RETRY_AFTER_SECONDS)},
            )
        except Exception as error:
            return (
                500,
                _json_bytes(error_payload(f"experiment failed: {error}")),
                _JSON_CONTENT_TYPE,
                {},
            )
        return (
            200,
            _json_bytes(payload),
            _JSON_CONTENT_TYPE,
            {"X-Request-Id": request_id},
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = _JSON_CONTENT_TYPE,
        extra_headers: Optional[Dict[str, str]] = None,
        keep_alive: bool = False,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def run_server(config: ServeConfig, ready=None) -> None:
    """Build state + server, announce readiness, serve until cancelled."""
    state = ServerState(config)
    server = ReproServer(state)
    await server.start()
    host, port = server.address
    if ready is not None:
        ready(host, port)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
