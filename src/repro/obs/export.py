"""Snapshot export (JSON + Prometheus text), report rendering, schema check.

The snapshot document format is::

    {"schema": 1, "metrics": {"timing.pthread.launches": {"type": "counter",
                                                          "value": 123}, ...}}

``METRIC_CATALOG`` pins the stable metric names and their types.  CI runs
``repro obs check`` against the snapshot produced by a real pipeline run;
a catalog name missing from the snapshot (the publishing code was removed)
or present with a different type fails the build.  Names *not* in the
catalog may come and go freely.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from .metrics import MetricsRegistry

SNAPSHOT_SCHEMA_VERSION = 1

#: Stable metric names -> type.  Every name here is registered by a full
#: pipeline run (trace -> baseline -> selection -> timing) plus the
#: harness cache, so the CI schema check can require all of them.
METRIC_CATALOG: Dict[str, str] = {
    # Functional (trace-collection) engine.
    "functional.runs": "counter",
    "functional.instructions": "counter",
    "functional.loads": "counter",
    "functional.stores": "counter",
    "functional.branches": "counter",
    "functional.l1.misses": "counter",
    "functional.l2.misses": "counter",
    # Basic-block code generation.
    "engine.compile.programs": "counter",
    "engine.compile.blocks": "counter",
    # Tiered engine.
    "engine.tier.compiled_blocks": "counter",
    # Timing core (SimStats totals, accumulated across runs).
    "timing.runs": "counter",
    "timing.instructions": "counter",
    "timing.cycles": "counter",
    "timing.l1.misses": "counter",
    "timing.l2.misses": "counter",
    "timing.l2.covered_full": "counter",
    "timing.l2.covered_partial": "counter",
    "timing.branch.mispredictions": "counter",
    "timing.branch.mispredicts_covered": "counter",
    "timing.pthread.attempts": "counter",
    "timing.pthread.launches": "counter",
    "timing.pthread.drops": "counter",
    "timing.pthread.instructions": "counter",
    "timing.pthread.l2_misses": "counter",
    # Memory hierarchy (timed, multi-threaded model).
    "memory.mt.accesses": "counter",
    "memory.mt.l2_misses": "counter",
    "memory.pt.accesses": "counter",
    "memory.pt.l2_misses": "counter",
    "memory.prefetch.evicted": "counter",
    "memory.prefetch.unclaimed": "counter",
    "memory.l2.mshr.allocations": "counter",
    "memory.l2.mshr.merges": "counter",
    "memory.l2.mshr.full_stalls": "counter",
    "memory.l2.mshr_occupancy": "histogram",
    # Experiment harness / artifact cache.
    "harness.cache.hits": "counter",
    "harness.cache.disk_hits": "counter",
    "harness.cache.misses": "counter",
    "harness.cache.entries": "gauge",
    "harness.cache.bytes": "gauge",
}

#: Metric names published only by *optional* subsystems — the
#: discrete-event timing model and the cross-model parity harness —
#: which a full pipeline run never touches, so they cannot join
#: ``METRIC_CATALOG`` (the CI schema check requires every catalog name
#: in the pipeline's snapshot).  Their types are still pinned: when one
#: of these names does appear in a snapshot, a type change fails the
#: check just like a catalog name.
AUXILIARY_METRICS: Dict[str, str] = {
    # Event-driven timing model (repro.timing.eventsim).
    "eventsim.runs": "counter",
    "eventsim.instructions": "counter",
    "eventsim.events": "counter",
    "eventsim.heap.max_depth": "gauge",
    "eventsim.heap.depth": "histogram",
    "eventsim.fills.max_outstanding": "gauge",
    # Cross-model parity harness (repro.validation.parity).
    "parity.comparisons": "counter",
    "parity.divergences": "counter",
    # Serve daemon (repro.serve).
    "serve.requests.total": "counter",
    "serve.requests.ok": "counter",
    "serve.requests.errors": "counter",
    "serve.requests.rejected": "counter",
    "serve.requests.budget_exceeded": "counter",
    "serve.queue.depth": "gauge",
    "serve.request.seconds": "histogram",
}


def snapshot_document(registry: MetricsRegistry) -> Dict[str, Any]:
    return {"schema": SNAPSHOT_SCHEMA_VERSION, "metrics": registry.snapshot()}


def write_snapshot(path, registry: MetricsRegistry) -> Dict[str, Any]:
    doc = snapshot_document(registry)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def load_snapshot(path) -> Dict[str, Any]:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported snapshot schema {doc.get('schema')!r} "
            f"(expected {SNAPSHOT_SCHEMA_VERSION})"
        )
    return doc


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def to_prometheus(metrics: Dict[str, Dict[str, Any]]) -> str:
    """Flat Prometheus-style text exposition of a snapshot's metrics."""
    lines: List[str] = []
    for name in sorted(metrics):
        entry = metrics[name]
        prom = _prom_name(name)
        kind = entry["type"]
        lines.append(f"# TYPE {prom} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{prom} {entry['value']}")
        elif kind == "histogram":
            cumulative = 0
            for bound, count in zip(entry["buckets"], entry["counts"]):
                cumulative += count
                lines.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
            cumulative += entry["counts"][-1]
            lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{prom}_sum {entry['sum']}")
            lines.append(f"{prom}_count {entry['count']}")
        else:
            raise ValueError(f"metric {name!r}: unknown type {kind!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_report(metrics: Dict[str, Dict[str, Any]]) -> str:
    """Human-readable fixed-width table of a snapshot's metrics."""
    if not metrics:
        return "(no metrics registered)"
    width = max(len(name) for name in metrics)
    lines = []
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry["type"]
        if kind == "histogram":
            count = entry["count"]
            mean = entry["sum"] / count if count else 0.0
            value = f"count={count} sum={entry['sum']:g} mean={mean:.2f}"
        else:
            value = f"{entry['value']:g}"
        lines.append(f"{name:<{width}}  {kind:<9}  {value}")
    return "\n".join(lines)


def check_snapshot(doc: Dict[str, Any]) -> List[str]:
    """Compare a snapshot document against the catalog.

    Returns a list of problems (empty means the schema check passes):
    catalog names missing from the snapshot, and names whose type changed.
    Auxiliary names (``AUXILIARY_METRICS``) are optional but
    type-checked when present; other non-catalog names are allowed.
    """
    problems: List[str] = []
    metrics = doc.get("metrics", {})
    for name, kind in sorted(METRIC_CATALOG.items()):
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"missing catalog metric: {name} ({kind})")
        elif entry.get("type") != kind:
            problems.append(
                f"type changed: {name} is {entry.get('type')!r}, "
                f"catalog says {kind!r}"
            )
    for name, kind in sorted(AUXILIARY_METRICS.items()):
        entry = metrics.get(name)
        if entry is not None and entry.get("type") != kind:
            problems.append(
                f"type changed: {name} is {entry.get('type')!r}, "
                f"auxiliary catalog says {kind!r}"
            )
    return problems
