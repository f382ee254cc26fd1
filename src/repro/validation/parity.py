"""Cross-model parity contract between the two timing simulators.

The repo carries two independently written timing models of the same
machine: the trace-driven :class:`repro.timing.core.TimingSimulator`
(a per-instruction loop carrying cycle arithmetic in locals) and the
discrete-event :class:`repro.timing.eventsim.EventSimulator` (a typed
event heap).  They share the decoded program, the memory hierarchy,
the branch predictor, and the statistics container — but none of the
pipeline/scheduling loop code, which is where timing-model bugs live.
This module pins what the two must agree on.

**Exact checks** (bit-for-bit equality, in a pinned order):

- committed architectural state: the register file and every non-zero
  committed memory word,
- instruction, load, store, and branch counts,
- branch mispredictions and hint-covered mispredictions,
- per-level miss counts (L1, original-program L2, fully/partially
  covered L2 misses), and
- p-thread launch/drop/instruction counts, per-trigger.

These are exact because both models implement the *same machine
definition*: fetch consumes bandwidth minus stolen slots at a single
well-defined cycle, retirement is in program order, p-thread launches
happen at the trigger's dispatch cycle.  Any formulation of that
definition — loop or event heap — must produce the same committed
state and the same event counts; a mismatch is a model bug, never
noise.  In practice the two models are cycle-identical too, so the
**band checks** (total cycles and IPC within ``rel`` / ``abs``
tolerance, default 2% / 16 cycles) exist as documented headroom for
future models that relax event ordering, not as an escape hatch:
``--strict`` keeps the band at its defaults rather than widening it.

:class:`ParityReport` keeps every comparison; on failure,
:attr:`ParityReport.first_divergence` names the first diverging check
in the pinned order (the earliest observable consequence of the bug,
e.g. ``registers`` before any derived count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import get_registry as obs_registry, get_tracer

#: Default tolerance band for the cycle-level checks.
DEFAULT_REL_TOL = 0.02
DEFAULT_ABS_TOL = 16.0

#: Pinned order of the exact SimStats fields (after the architectural
#: state checks, which always come first).
EXACT_STAT_FIELDS = (
    "instructions",
    "loads",
    "stores",
    "branches",
    "mispredictions",
    "mispredicts_covered",
    "l1_misses",
    "l2_misses",
    "misses_fully_covered",
    "misses_partially_covered",
    "pthread_launches",
    "pthread_drops",
    "pthread_instructions",
    "pthread_l2_misses",
    "launches_by_trigger",
    "drops_by_trigger",
)

#: Cycle-level fields compared within the tolerance band.
BAND_STAT_FIELDS = ("cycles", "ipc")


@dataclass(frozen=True)
class ParityTolerance:
    """Tolerance band for the non-exact (cycle-level) checks."""

    rel: float = DEFAULT_REL_TOL
    abs: float = DEFAULT_ABS_TOL

    def within(self, reference: float, value: float) -> bool:
        return abs(value - reference) <= max(
            self.rel * abs(reference), self.abs
        )


@dataclass
class ParityCheck:
    """One named comparison between the two models."""

    name: str
    kind: str  # "exact" | "band"
    reference: object  # trace-driven model's value
    value: object  # event-driven model's value
    ok: bool
    detail: str = ""  # e.g. first differing keys of a state diff

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "reference": _jsonable(self.reference),
            "value": _jsonable(self.value),
            "ok": self.ok,
            "detail": self.detail,
        }

    def render(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        text = (
            f"{self.name} [{self.kind}] {status}: "
            f"trace={self.reference!r} event={self.value!r}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class ParityRun:
    """One model's observable outcome, as the contract sees it."""

    stats: Dict[str, object]
    registers: List[int]
    memory_words: Dict[int, int]


@dataclass
class ParityReport:
    """Outcome of one cross-model parity comparison.

    ``checks`` holds every comparison in the pinned contract order;
    :attr:`first_divergence` is the earliest failing one — for an
    architectural-state bug that is ``registers``/``memory`` before
    any derived count, so the report points at the first observable
    consequence of the divergence.
    """

    workload: str
    mode: str
    engine: str
    tolerance: ParityTolerance = field(default_factory=ParityTolerance)
    checks: List[ParityCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def first_divergence(self) -> Optional[ParityCheck]:
        for check in self.checks:
            if not check.ok:
                return check
        return None

    def failed_checks(self) -> List[str]:
        return [check.name for check in self.checks if not check.ok]

    def to_dict(self) -> Dict[str, object]:
        first = self.first_divergence
        return {
            "workload": self.workload,
            "mode": self.mode,
            "engine": self.engine,
            "ok": self.ok,
            "tolerance": {"rel": self.tolerance.rel, "abs": self.tolerance.abs},
            "first_divergence": first.name if first else None,
            "checks": [check.to_dict() for check in self.checks],
        }

    def render(self) -> str:
        head = f"parity {self.workload} [{self.mode}/{self.engine}]"
        if self.ok:
            return f"{head}: OK ({len(self.checks)} checks)"
        first = self.first_divergence
        assert first is not None
        lines = [
            f"{head}: DIVERGED at {first.name}",
            f"  first divergence: {first.render()}",
        ]
        for check in self.checks:
            if not check.ok and check is not first:
                lines.append(f"  also: {check.render()}")
        return "\n".join(lines)


def _jsonable(value: object) -> object:
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    return value


def _preview_diff(
    reference: Dict[object, object], value: Dict[object, object], limit: int = 4
) -> str:
    """First few differing keys of two dicts, for check payloads."""
    diffs = []
    for key in sorted(set(reference) | set(value), key=repr):
        left, right = reference.get(key), value.get(key)
        if left != right:
            diffs.append(f"{key}: {left!r} != {right!r}")
            if len(diffs) >= limit:
                diffs.append("...")
                break
    return "; ".join(diffs)


def compare_runs(
    trace: ParityRun,
    event: ParityRun,
    workload: str,
    mode: str,
    engine: str,
    tolerance: Optional[ParityTolerance] = None,
) -> ParityReport:
    """Apply the pinned parity contract to two model outcomes."""
    tolerance = tolerance or ParityTolerance()
    report = ParityReport(
        workload=workload, mode=mode, engine=engine, tolerance=tolerance
    )
    checks = report.checks

    # 1. Committed architectural state, before any derived count.
    regs_ok = trace.registers == event.registers
    checks.append(
        ParityCheck(
            "registers",
            "exact",
            len(trace.registers),
            len(event.registers),
            regs_ok,
            detail="" if regs_ok else _preview_diff(
                dict(enumerate(trace.registers)),
                dict(enumerate(event.registers)),
            ),
        )
    )
    mem_ok = trace.memory_words == event.memory_words
    checks.append(
        ParityCheck(
            "memory",
            "exact",
            len(trace.memory_words),
            len(event.memory_words),
            mem_ok,
            detail="" if mem_ok else _preview_diff(
                dict(trace.memory_words), dict(event.memory_words)
            ),
        )
    )

    # 2. Exact event counts, pinned order.
    for name in EXACT_STAT_FIELDS:
        left, right = trace.stats.get(name), event.stats.get(name)
        checks.append(
            ParityCheck(name, "exact", left, right, left == right)
        )

    # 3. Cycle-level band.
    for name in BAND_STAT_FIELDS:
        left, right = trace.stats.get(name), event.stats.get(name)
        ok = (
            isinstance(left, (int, float))
            and isinstance(right, (int, float))
            and tolerance.within(float(left), float(right))
        )
        checks.append(ParityCheck(name, "band", left, right, ok))

    return report


def _capture(sim, mode, max_instructions: int) -> ParityRun:
    stats = sim.run(mode, max_instructions=max_instructions)
    payload = stats.to_dict()
    payload["ipc"] = stats.ipc
    memory = sim.last_memory
    words = memory.snapshot() if memory is not None else {}
    return ParityRun(
        stats=payload,
        registers=list(sim.last_registers),
        memory_words={a: v for a, v in words.items() if v != 0},
    )


def run_parity(
    program,
    hierarchy_config,
    mode,
    pthreads: Optional[Sequence] = None,
    machine=None,
    engine: Optional[str] = None,
    max_instructions: int = 120_000,
    workload: str = "?",
    tolerance: Optional[ParityTolerance] = None,
) -> ParityReport:
    """Run both timing models on one configuration and compare.

    ``engine`` selects the trace-driven model's engine (``None`` runs
    the tiered engine); the report is labelled with the engine that
    model ran.  Both models run under the same instruction
    cap so the committed state they are compared on is well-defined
    even for workloads that do not halt within the cap.  Emits a
    ``parity`` span and folds verdict counters into the metrics
    registry (auxiliary names, not in the stable catalog).
    """
    from repro.timing.core import TimingSimulator
    from repro.timing.eventsim import EventSimulator

    mode_name = getattr(mode, "name", str(mode))
    with get_tracer().span(
        "parity", workload=workload, mode=mode_name
    ):
        trace_sim = TimingSimulator(
            program, hierarchy_config, machine=machine,
            pthreads=list(pthreads) if pthreads else None, engine=engine,
        )
        event_sim = EventSimulator(
            program, hierarchy_config, machine=machine,
            pthreads=list(pthreads) if pthreads else None,
        )
        trace_run = _capture(trace_sim, mode, max_instructions)
        event_run = _capture(event_sim, mode, max_instructions)
        report = compare_runs(
            trace_run,
            event_run,
            workload=workload,
            mode=mode_name,
            engine=str(trace_sim.last_engine),
            tolerance=tolerance,
        )
    registry = obs_registry()
    registry.counter("parity.comparisons").inc()
    if not report.ok:
        registry.counter("parity.divergences").inc()
    return report
