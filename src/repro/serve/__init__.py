"""``repro serve`` — long-lived selection/simulation daemon.

An HTTP/JSON service over the experiment pipeline: submit a
workload/scenario, get the selection, measured statistics, and
table/figure payloads, with warm in-process state (compile memo,
artifact cache, runner stage caches) shared across requests.

Layout:

- :mod:`repro.serve.protocol` — request/response schema;
- :mod:`repro.serve.state` — the shared runner, whose stage memo is
  the one cache, admission control, and the thread pool whose FIFO is
  the one queue;
- :mod:`repro.serve.http` — the HTTP/1.1 front end on
  :mod:`http.server`, a thread per connection, which any HTTP client
  (``curl``, :mod:`http.client`) can drive; :func:`run_server`, its
  entry point, is the package's one coroutine.
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

__all__ = [
    "ProtocolError",
    "QueueFullError",
    "ReproServer",
    "RunRequest",
    "SERVE_SCHEMA_VERSION",
    "ServeConfig",
    "ServerState",
    "error_payload",
    "parse_run_request",
    "partial_payload",
    "result_payload",
    "run_server",
]
