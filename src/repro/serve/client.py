"""Minimal asyncio HTTP/1.1 client for the serve daemon.

Used by the e2e tests and for scripting against a daemon; it speaks
just enough HTTP for the daemon's five routes (keep-alive,
``Content-Length`` bodies) with no external dependency.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple


class ServeClient:
    """One keep-alive connection to a running daemon."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = None
        self._writer = None

    async def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One round trip; reconnects once if the link had gone stale."""
        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            try:
                return await self._round_trip(method, path, body)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise
        raise RuntimeError("unreachable")

    async def _round_trip(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes]:
        assert self._reader is not None and self._writer is not None
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(" ", 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("truncated response headers")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, data

    async def get(self, path: str) -> Tuple[int, Dict[str, str], bytes]:
        return await self.request("GET", path)

    async def get_json(self, path: str) -> Tuple[int, Any]:
        status, _, data = await self.request("GET", path)
        return status, json.loads(data) if data else None

    async def post_json(
        self, path: str, doc: Any
    ) -> Tuple[int, Dict[str, str], Any]:
        status, headers, data = await self.request(
            "POST", path, json.dumps(doc).encode("utf-8")
        )
        return status, headers, json.loads(data) if data else None
