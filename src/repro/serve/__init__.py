"""``repro serve`` — long-lived selection/simulation daemon.

An asyncio HTTP/JSON service over the experiment pipeline: submit a
workload/scenario, get the selection, measured statistics, and
table/figure payloads, with warm in-process state (compile memo,
artifact cache, runner stage caches) shared across requests.

Layout:

- :mod:`repro.serve.protocol` — request/response schema;
- :mod:`repro.serve.state` — warm caches, bounded queue, worker pool;
- :mod:`repro.serve.http` — the asyncio HTTP/1.1 front end;
- :mod:`repro.serve.client` — the minimal client (tests, scripting).
"""

from .protocol import (
    SERVE_SCHEMA_VERSION,
    ProtocolError,
    RunRequest,
    error_payload,
    parse_run_request,
    partial_payload,
    result_payload,
)
from .state import QueueFullError, ServeConfig, ServerState
from .http import ReproServer, run_server
from .client import ServeClient

__all__ = [
    "ProtocolError",
    "QueueFullError",
    "ReproServer",
    "RunRequest",
    "SERVE_SCHEMA_VERSION",
    "ServeClient",
    "ServeConfig",
    "ServerState",
    "error_payload",
    "parse_run_request",
    "partial_payload",
    "result_payload",
    "run_server",
]
