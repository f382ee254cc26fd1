"""Per-layer spans and counters for the traced benchmark run.

Nothing under ``src/`` is edited: :func:`install` replaces each layer's
public entry points with timing wrappers, patched where the *caller*
looks the name up (modules import functions by name, so
``optimize_body`` is patched in both ``repro.selection.selector`` and
``repro.pthreads.merger``).

Spans are aggregated in memory as they close and read out once at the
end (:meth:`LayerTracer.totals`).  Span stacks are per thread, because
the serve daemon runs requests on two worker threads at once.  A span's
self time is its duration minus the durations of the spans nested in
it, so on one thread the self times of all spans add up to the time
spent inside the outermost ones.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Registry counters owned by the engine layer; read as deltas across
#: each ``run_program`` call so timing-simulation compiles stay out.
ENGINE_COUNTERS = (
    "engine.tier.compiled_blocks",
    "engine.codegen.cache_misses",
    "engine.compile.programs",
    "engine.compile.blocks",
)

#: ``SimMode.name`` -> timing span name.
TIMING_SPANS = {"baseline": "timing.baseline", "pre-exec": "timing.preexec"}


class _ThreadState:
    """One thread's open-span stack plus its running totals."""

    __slots__ = ("stack", "spans", "counts")

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        #: span name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class LayerTracer:
    """Wraps functions in spans; keeps per-thread stacks and totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -------------------------------------------------------

    def spanned(
        self,
        fn: Callable,
        name,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as a span.

        ``name`` is a string or ``name(args, kwargs)``; it returns
        ``None`` to skip the span (the call still runs).  ``before(st,
        args, kwargs)`` runs first and its result is handed to
        ``after(st, token, args, kwargs, result)``; neither is timed.
        """
        tracer = self
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            label = name(args, kwargs) if callable(name) else name
            token = before(st, args, kwargs) if before is not None else None
            if label is None:
                result = fn(*args, **kwargs)
            else:
                frame = [0.0]
                st.stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    st.stack.pop()
                    if st.stack:
                        st.stack[-1][0] += elapsed
                    entry = st.spans.get(label)
                    if entry is None:
                        entry = st.spans[label] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]
            if after is not None:
                after(st, token, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn: Callable, after: Callable) -> Callable:
        """``fn`` untimed; ``after(st, args, kwargs, result)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer.state(), args, kwargs, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        Class methods keep their binding: a ``classmethod`` is unwrapped,
        its function wrapped, and the result re-wrapped.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- read-out -------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, Any]]:
        """Span totals and counts summed over every thread."""
        spans: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for label, (calls, total, self_s) in st.spans.items():
                entry = spans.setdefault(label, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            for label, amount in st.counts.items():
                counts[label] = counts.get(label, 0) + amount
        return {
            "spans": {
                label: {"calls": int(c), "total_s": t, "self_s": s}
                for label, (c, t, s) in sorted(spans.items())
            },
            "counts": dict(sorted(counts.items())),
        }


def install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import os

    import repro.harness.experiment as experiment
    import repro.pthreads.merger as merger
    import repro.pthreads.optimizer as optimizer
    import repro.selection.program_selector as program_selector
    import repro.selection.selector as selector
    from repro.engine.functional import FunctionalResult
    from repro.engine.trace import Trace
    from repro.harness.artifacts import ArtifactCache
    from repro.obs import get_registry
    from repro.slicing.slicer import Slicer
    from repro.timing.core import TimingSimulator
    from repro.timing.stats import SimStats

    spanned = tracer.spanned

    # workloads: program generation, as the runner calls it.
    tracer.patch(experiment, "build", lambda fn: spanned(fn, "workloads.build"))

    # engine: the functional trace, with the engine's own counters read
    # as deltas across the call.
    def engine_before(st, args, kwargs):
        registry = get_registry()
        return [registry.counter(name).value for name in ENGINE_COUNTERS]

    def engine_after(st, before, args, kwargs, result):
        registry = get_registry()
        for name, old in zip(ENGINE_COUNTERS, before):
            st.count(name, registry.counter(name).value - old)
        st.count("engine.instructions", result.instructions)

    tracer.patch(
        experiment,
        "run_program",
        lambda fn: spanned(fn, "engine.trace", engine_before, engine_after),
    )

    # Lazy trace arrays: timed only on the call that converts, wherever
    # that call lands (usually inside slice-tree construction).
    tracer.patch(
        Trace,
        "_materialize",
        lambda fn: spanned(
            fn,
            lambda args, kwargs: (
                "engine.materialize" if args[0]._arrays is None else None
            ),
        ),
    )

    # timing: split by simulation mode.
    def timing_name(args, kwargs):
        mode = args[1] if len(args) > 1 else kwargs.get("mode")
        name = mode.name if mode is not None else "baseline"
        return TIMING_SPANS.get(name, "timing.validation")

    def timing_after(st, token, args, kwargs, stats):
        st.count("timing.instructions", stats.instructions + stats.pthread_instructions)
        if stats.mode == "pre-exec":
            st.count("timing.preexec.l2_misses", stats.l2_misses)
            st.count(
                "timing.preexec.covered",
                stats.misses_fully_covered + stats.misses_partially_covered,
            )
            st.count("timing.preexec.launches", stats.pthread_launches)
            st.count("timing.preexec.drops", stats.pthread_drops)

    tracer.patch(
        TimingSimulator,
        "run",
        lambda fn: spanned(fn, timing_name, after=timing_after),
    )

    # slicing: tree construction as the program selector calls it, plus
    # a count of dynamic slices.
    def trees_after(st, token, args, kwargs, trees):
        st.count("slicing.trees", len(trees))
        st.count("slicing.tree_nodes", sum(t.num_nodes() for t in trees.values()))

    tracer.patch(
        program_selector,
        "build_slice_trees",
        lambda fn: spanned(fn, "slicing.build", after=trees_after),
    )
    tracer.patch(
        Slicer,
        "slice_at",
        lambda fn: tracer.counted(
            fn, lambda st, args, kwargs, result: st.count("slicing.slices")
        ),
    )

    # selection and model.
    tracer.patch(
        experiment,
        "select_pthreads",
        lambda fn: spanned(fn, "selection.program"),
    )

    def select_after(st, token, args, kwargs, selection):
        st.count("selection.trees")
        st.count("selection.iterations", selection.iterations)
        st.count("selection.chosen", len(selection.selected))

    tracer.patch(
        program_selector,
        "select_from_tree",
        lambda fn: spanned(fn, "selection.select", after=select_after),
    )
    tracer.patch(
        selector,
        "enumerate_candidates",
        lambda fn: tracer.counted(
            fn,
            lambda st, args, kwargs, result: st.count(
                "selection.candidates", len(result)
            ),
        ),
    )
    tracer.patch(
        selector,
        "evaluate_candidate",
        lambda fn: tracer.counted(
            fn, lambda st, args, kwargs, result: st.count("model.evaluate_calls")
        ),
    )

    # pthreads: optimisation at both call sites, and merging.
    def optimize_before(st, args, kwargs):
        body = args[0] if args else kwargs["body"]
        targets = args[1] if len(args) > 1 else kwargs.get("targets")
        no_alias = args[3] if len(args) > 3 else kwargs.get("assume_no_alias", True)
        key = optimizer._memo_key(body, targets, no_alias)
        st.count("pthreads.optimize_calls")
        if key in optimizer._MEMO:
            st.count("pthreads.optimize_memo_hits")

    for module in (selector, merger):
        tracer.patch(
            module,
            "optimize_body",
            lambda fn: spanned(fn, "pthreads.optimize", optimize_before),
        )
    tracer.patch(
        program_selector,
        "merge_pthreads",
        lambda fn: spanned(fn, "pthreads.merge"),
    )

    # harness: the persistent artifact cache and its decoders.
    def load_after(st, token, args, kwargs, payload):
        if payload is not None:
            cache, kind, key = args[0], args[1], args[2]
            st.count("harness.artifacts.disk_hits")
            st.count("harness.artifacts.bytes", os.path.getsize(cache.path(kind, key)))

    def store_after(st, token, args, kwargs, result):
        cache, kind, key = args[0], args[1], args[2]
        st.count("harness.artifacts.bytes", os.path.getsize(cache.path(kind, key)))

    tracer.patch(
        ArtifactCache,
        "load",
        lambda fn: spanned(fn, "harness.artifacts.load", after=load_after),
    )
    tracer.patch(
        ArtifactCache,
        "store",
        lambda fn: spanned(fn, "harness.artifacts.store", after=store_after),
    )
    for cls in (FunctionalResult, SimStats):
        tracer.patch(
            cls,
            "from_dict",
            lambda fn: spanned(fn, "harness.artifacts.decode"),
        )
    tracer.patch(
        experiment.ExperimentRunner,
        "run",
        lambda fn: spanned(fn, "harness.run"),
    )
