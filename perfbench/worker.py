"""One measured unit of work, in a fresh process.

Every Table 2 pass runs in its own interpreter, so no process-wide
state (compile memo, code cache, optimizer memo, runner stage caches)
survives from one sample to the next.  The artifact cache is whatever
``REPRO_CACHE_DIR`` says: ``off`` for a cold pass, a directory for the
fill and warm passes.

Modes:

* ``setup``: import ``repro`` and build the runner, nothing else;
* ``pass``: one serial Table 2 pass over ``--programs``;
* ``reference``: offline ``result_payload`` of each request document
  in ``--requests`` (the serve sweep's correctness reference).

The result is one JSON document written to ``--out``.  ``setup_s`` runs
from ``--spawned`` (the parent's ``time.monotonic()`` just before it
started this process; the clock is system-wide) until the runner exists;
``total_s`` runs from ``--spawned`` to the end of the work.  A pace
sampler (``pace.py``) runs from the first line, and every time also
comes as ``*_ref_s``, in reference seconds.
"""

from __future__ import annotations

import time

import pace

SAMPLER = pace.PaceSampler().start()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: Registry counters read as deltas over a pass.
PASS_COUNTERS = (
    "engine.compile.programs",
    "engine.compile.blocks",
    "memory.l2.mshr.full_stalls",
)


def _counter_values(registry):
    return {name: registry.counter(name).value for name in PASS_COUNTERS}


def table2_pass(runner, programs, tracer=None):
    """One serial Table 2 pass; cells run in ``programs`` order.

    ``rows`` holds every field of each program's ``Table2Row``, so the
    parent can render the table of a pass split over processes.
    """
    from repro.harness.tables import table2
    from repro.obs import get_registry

    before = _counter_values(get_registry())
    rows, cells = {}, {}
    start = time.monotonic()
    for name in programs:
        cell_start = time.monotonic()
        (rows[name],) = table2(runner, workloads=[name])
        cells[name] = time.monotonic() - cell_start
    end = time.monotonic()
    after = _counter_values(get_registry())
    return {
        "wall_s": end - start,
        "wall_ref_s": pace.normalise(SAMPLER.samples, start, end),
        "host_factor": pace.factor(SAMPLER.samples, start, end),
        "cells_s": cells,
        "rows": {name: dataclasses.asdict(row) for name, row in rows.items()},
        "counters": {name: after[name] - before[name] for name in PASS_COUNTERS},
        "layers": tracer.totals() if tracer is not None else None,
    }


def reference_payloads(runner, documents):
    """Offline payloads (``timings`` dropped) for serve request documents."""
    from repro.serve.protocol import parse_run_request, result_payload

    payloads = []
    for document in documents:
        payload = result_payload(runner.run(parse_run_request(document).config))
        payload.pop("timings", None)
        payloads.append(payload)
    return payloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "reference"))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--programs", default="")
    parser.add_argument("--requests")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.harness.artifacts import ArtifactCache
    from repro.harness.experiment import ExperimentRunner

    runner = ExperimentRunner(artifacts=ArtifactCache.from_env())
    ready = time.monotonic()
    result = {
        "setup_s": ready - args.spawned,
        "setup_ref_s": pace.normalise(SAMPLER.samples, args.spawned, ready),
    }

    if args.mode == "pass":
        tracer = None
        if args.trace:
            from layers import LayerTracer, install

            tracer = LayerTracer()
            install(tracer)
        result.update(table2_pass(runner, args.programs.split(","), tracer))
    elif args.mode == "reference":
        with open(args.requests) as handle:
            documents = json.load(handle)
        result["payloads"] = reference_payloads(runner, documents)

    done = time.monotonic()
    SAMPLER.stop()
    result["total_s"] = done - args.spawned
    result["total_ref_s"] = pace.normalise(SAMPLER.samples, args.spawned, done)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tmp = f"{args.out}.tmp"
    with open(tmp, "w") as handle:
        json.dump(result, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
