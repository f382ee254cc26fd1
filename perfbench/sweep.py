"""Seeded request lists and a closed-loop HTTP client for serve_sweep.

Requests are ``/v1/run`` documents over a grid of selection constraints
(``scope``, ``max_pthread_length``, ``optimize``, ``merge``) and
``machine.bw_seq``.  New configs are drawn from the grid without
replacement; one request in four re-sends an earlier config.  Set-up
primes the daemon with one default-config request per program, so the
grid leaves each program's default config out: no new config can hit
the response cache.

A run sends a fixed number of rounds.  A round asks every program for
one new config, in seeded order; each block of rounds gives every
program each scope and each p-thread length once and each non-default
switch once.  So every seed sends the same amount of work with the
same mix, and only the configs differ.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

#: A heavy (gap), three middle (vpr.r, twolf, vpr.p) and a light
#: (parser) program.  With three of the five alike, the median latency
#: falls inside one cluster of similar requests rather than on the edge
#: between two, which keeps it steadier across seeds.  mcf, vortex,
#: bzip2 and gcc are left to cold_table2: a stage-warm request of
#: theirs costs two to three of these.
PROGRAMS = ("gap", "vpr.r", "twolf", "vpr.p", "parser")

SCOPES = (256, 512, 1024)
LENGTHS = (8, 16, 32)
WIDTHS = (4, 8)

#: Defaults of SelectionConstraints and MachineConfig: the priming config.
DEFAULT = (1024, 32, True, True, 8)

#: Every REPEAT_EVERY-th request re-sends an earlier config.
REPEAT_EVERY = 4

#: Rounds come in blocks of this many; a block gives every program each
#: scope and each length once.
BLOCK = len(SCOPES)


def priming_requests(programs=PROGRAMS) -> List[Dict[str, Any]]:
    return [{"workload": name} for name in programs]


def _document(program: str, point) -> Dict[str, Any]:
    scope, length, optimize, merge, width = point
    return {
        "workload": program,
        "constraints": {
            "scope": scope,
            "max_pthread_length": length,
            "optimize": optimize,
            "merge": merge,
        },
        "machine": {"bw_seq": width},
    }


def _program_configs(program: str, rng: random.Random) -> Iterator[Dict[str, Any]]:
    """The program's grid without its default, in balanced blocks.

    A block is BLOCK configs that pair the scopes with the lengths at
    random (a Latin row) and turn ``optimize`` off, ``merge`` off and
    the narrow width on for one config each, chosen at random.  So
    every block costs about the same whatever the seed.  No point is
    drawn twice; the stream ends when no fresh block can be found.
    """
    used = {DEFAULT}
    while True:
        for _ in range(100):
            scopes, lengths = list(SCOPES), list(LENGTHS)
            rng.shuffle(scopes)
            rng.shuffle(lengths)
            no_opt, no_merge, narrow = (rng.randrange(BLOCK) for _ in range(3))
            block = [
                (scopes[i], lengths[i], i != no_opt, i != no_merge,
                 WIDTHS[0] if i == narrow else WIDTHS[1])
                for i in range(BLOCK)
            ]
            if not used.intersection(block):
                break
        else:
            return
        used.update(block)
        for point in block:
            yield _document(program, point)


def request_list(seed: int, rounds: int, programs=PROGRAMS) -> List[Dict[str, Any]]:
    """``rounds`` rounds of new configs, with every fourth request a repeat."""
    rng = random.Random(seed)
    streams = [_program_configs(name, rng) for name in programs]
    # Seeded rounds: every program once per round, in shuffled order.
    new: List[Dict[str, Any]] = []
    while True:
        rng.shuffle(streams)
        batch = [document for document in (next(s, None) for s in streams) if document]
        if not batch:
            break
        new.extend(batch)

    requests: List[Dict[str, Any]] = []
    fresh: List[Dict[str, Any]] = []
    pending = iter(new[: rounds * len(programs)])
    while True:
        if len(requests) % REPEAT_EVERY == REPEAT_EVERY - 1 and len(fresh) > 2:
            # Skip the two newest configs: they may still be in flight.
            requests.append(rng.choice(fresh[:-2]))
            continue
        document = next(pending, None)
        if document is None:
            return requests
        fresh.append(document)
        requests.append(document)


def is_repeat(requests: List[Dict[str, Any]]) -> List[bool]:
    """Which entries re-send a config that appeared earlier in the list."""
    seen = set()
    flags = []
    for document in requests:
        key = json.dumps(document, sort_keys=True)
        flags.append(key in seen)
        seen.add(key)
    return flags


def drive(
    host: str,
    port: int,
    documents: List[Dict[str, Any]],
    connections: int,
) -> Dict[str, Any]:
    """Send ``documents`` closed loop over keep-alive connections.

    Each connection takes the next document in list order and sends it
    only after its previous reply arrived.  Returns one record per
    request, in list order, plus the first send and the last reply on
    the system-wide ``time.monotonic`` clock and the wall clock between.
    """
    lock = threading.Lock()
    cursor = itertools.count()
    records: List[Optional[Dict[str, Any]]] = [None] * len(documents)
    start = time.monotonic()

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=150)
        try:
            while True:
                with lock:
                    index = next(cursor)
                if index >= len(documents):
                    return
                body = json.dumps(documents[index]).encode("utf-8")
                sent = time.monotonic()
                status, request_id, payload = None, None, None
                try:
                    conn.request(
                        "POST", "/v1/run", body, {"Content-Type": "application/json"}
                    )
                    response = conn.getresponse()
                    data = response.read()
                    status = response.status
                    request_id = response.getheader("X-Request-Id")
                    payload = json.loads(data) if data else None
                except (OSError, http.client.HTTPException, ValueError) as error:
                    payload = {"status": "transport_error", "error": str(error)}
                    conn.close()
                done = time.monotonic()
                records[index] = {
                    "index": index,
                    "status": status,
                    "id": request_id,
                    "payload": payload,
                    "latency_s": done - sent,
                    "done": done,
                }
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    # A request that never got its reply is a failed operation too.
    done = [
        record or {"index": index, "status": None, "id": None, "payload": None,
                   "latency_s": None, "done": None}
        for index, record in enumerate(records)
    ]
    end = max((r["done"] for r in done if r["done"] is not None), default=start)
    return {"records": done, "start": start, "end": end, "elapsed_s": end - start}


def get_json(host: str, port: int, path: str) -> Any:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(data)
    finally:
        conn.close()
