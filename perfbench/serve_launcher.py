"""Run the serve daemon for serve_sweep, optionally with layer spans.

Prints ``PORT <n>`` once the daemon listens (it binds an ephemeral
port), serves until SIGTERM, then writes a JSON report to ``--report``:
the daemon's peak resident memory and, with ``--trace``, the layer
totals.  SIGUSR1 writes the same report so far to ``<report>.mark``.
With ``--trace`` the same wrappers as the Table 2 workers are installed
before the daemon starts, plus a ``serve.execute`` span around each
request's execution on its worker thread.  A pace sampler (``pace.py``)
runs on the daemon's main thread from the first line; the report holds
its rounds, so the client can put its timings in reference seconds.
The daemon, all its threads, is pinned to one core (the last one it
may use): the GIL lets it use one core at a time anyway, and on one
core the sampler's rounds see the same host speed as the requests.
"""

from __future__ import annotations

import pace

SAMPLER = pace.PaceSampler().start()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # Before any thread starts: threads inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from repro.serve.http import run_server
    from repro.serve.state import ServeConfig, ServerState

    tracer = None
    if args.trace:
        from layers import LayerTracer, install

        tracer = LayerTracer()
        install(tracer)
        tracer.patch(
            ServerState, "_execute", lambda fn: tracer.spanned(fn, "serve.execute")
        )

    # Two worker threads, one per core; no artifact cache, so every new
    # config computes.
    config = ServeConfig(host="127.0.0.1", port=0, workers=2, no_cache=True)

    def ready(host: str, port: int) -> None:
        print(f"PORT {port}", flush=True)

    def report(path: str) -> None:
        _write_json(path, {
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": tracer.totals() if tracer is not None else None,
            "pace": list(SAMPLER.samples),
        })

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
        # SIGUSR1 marks the start of the measured sweep: totals so far
        # (the priming requests) go to <report>.mark.
        loop.add_signal_handler(signal.SIGUSR1, report, f"{args.report}.mark")
        await run_server(config, ready=ready)

    try:
        asyncio.run(serve())
    except asyncio.CancelledError:
        pass
    SAMPLER.stop()
    report(args.report)
    return 0


def _write_json(path: str, document) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(document, handle)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
