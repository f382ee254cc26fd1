"""Hierarchical span tracer.

A :class:`Tracer` records a tree of named spans with wall-clock durations.
Spans nest via a context manager::

    tracer = Tracer()
    with tracer.span("pipeline", workload="mcf"):
        with tracer.span("trace"):
            ...
        with tracer.span("selection", scope=64):
            ...

The export format carries *durations*, never absolute timestamps, so a
span subtree serialized in a worker process can be attached under a parent
span in the coordinator without any clock alignment (process clocks need
not agree; only per-span elapsed time is preserved).

Span names are short path segments ("trace", "selection"); the position in
the tree supplies the hierarchy, so a span's full identity reads like
``sweep/cell/selection``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

SPAN_SCHEMA_VERSION = 1


@dataclass
class Span:
    """One node in the trace tree: a name, metadata, and elapsed seconds."""

    name: str
    meta: Dict[str, Any] = field(default_factory=dict)
    duration: float = 0.0
    children: List["Span"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "duration": round(self.duration, 9)}
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(
            name=str(data["name"]),
            meta=dict(data.get("meta", {})),
            duration=float(data.get("duration", 0.0)),
        )
        span.children = [cls.from_dict(child) for child in data.get("children", [])]
        return span

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant with ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def seconds_by_name(self, names: Iterable[str]) -> Dict[str, float]:
        """Total duration of the spans named in ``names``, per name.

        A matched span's subtree is not searched further, so no time is
        counted twice; names that never occur are absent.
        """
        wanted = frozenset(names)
        totals: Dict[str, float] = {}
        stack = [self]
        while stack:
            span = stack.pop()
            if span.name in wanted:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
            else:
                stack.extend(span.children)
        return totals


class Tracer:
    """Records a tree of timed spans.

    The tracer always has an implicit (unexported) root; top-level spans
    are the root's children.  ``clock`` is injectable for tests.

    The stack of *open* spans is scoped with :mod:`contextvars`, not
    stored on the instance: concurrent asyncio tasks (and threads, which
    start from a fresh context) each see their own open-span chain, so
    interleaved requests attach children to their own parents instead of
    whichever span another task happens to have open.  The recorded tree
    (``root`` and every ``Span.children`` list) is still shared — only
    the notion of "currently open span" is per-context.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.root = Span("root")
        # Default () means "no open span in this context": current is root.
        # The tuple is immutable, so a context copy (asyncio task spawn)
        # can never mutate the parent context's view of the stack.
        self._stack_var: ContextVar[Tuple[Span, ...]] = ContextVar(
            "repro_tracer_stack", default=()
        )

    def _open_spans(self) -> Tuple[Span, ...]:
        return self._stack_var.get()

    @property
    def current(self) -> Span:
        stack = self._open_spans()
        return stack[-1] if stack else self.root

    @property
    def depth(self) -> int:
        """Nesting depth of open spans (0 when only the root is open)."""
        return len(self._open_spans())

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        node = Span(name, dict(meta))
        stack = self._open_spans()
        parent = stack[-1] if stack else self.root
        parent.children.append(node)
        token = self._stack_var.set(stack + (node,))
        start = self._clock()
        try:
            yield node
        finally:
            node.duration += self._clock() - start
            self._stack_var.reset(token)

    def attach(self, payload: Dict[str, Any]) -> List[Span]:
        """Attach serialized spans (a worker's ``to_dict`` output, or a
        single span dict) as children of the currently open span."""
        if "spans" in payload:
            spans = [Span.from_dict(item) for item in payload["spans"]]
        else:
            spans = [Span.from_dict(payload)]
        self.current.children.extend(spans)
        return spans

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SPAN_SCHEMA_VERSION,
            "spans": [child.to_dict() for child in self.root.children],
        }

    def export(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def render(self) -> str:
        """Indented text view of the span tree."""
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            meta = ""
            if span.meta:
                meta = "  " + " ".join(
                    f"{key}={value}" for key, value in sorted(span.meta.items())
                )
            lines.append(f"{'  ' * depth}{span.name:<24s} {span.duration:9.4f}s{meta}")
            for child in span.children:
                emit(child, depth + 1)

        for child in self.root.children:
            emit(child, 0)
        return "\n".join(lines)


# A process-global tracer so instrumented code does not need the tracer
# threaded through every call signature.  Worker processes install their
# own via set_tracer() and ship the resulting subtree back for attach().
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def reset_tracer() -> Tracer:
    """Install and return a fresh tracer (start of a run / worker cell)."""
    tracer = Tracer()
    set_tracer(tracer)
    return tracer
