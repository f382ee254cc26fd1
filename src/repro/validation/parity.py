"""Cross-model parity contract between the two timing simulators.

The repo carries two independently written timing models of the same
machine: the trace-driven :class:`repro.timing.core.TimingSimulator`
(a per-instruction loop carrying cycle arithmetic in locals) and the
discrete-event :class:`repro.timing.eventsim.EventSimulator` (a typed
event heap).  They share the decoded program, the memory hierarchy,
the branch predictor, and the statistics container — but none of the
pipeline/scheduling loop code, which is where timing-model bugs live.
This module pins what the two must agree on: everything either one
observes, exactly.

**Checks**, in a pinned order, each an equality:

- committed architectural state: the register file and every non-zero
  committed memory word,
- every :class:`~repro.timing.stats.SimStats` field in
  :meth:`~repro.timing.stats.SimStats.to_dict` order — instruction and
  branch counts, per-level miss counts and their coverage classes,
  prefetch fates, p-thread launch/drop/instruction counts per trigger,
  the per-load miss exposure — with ``cycles`` last.

These are exact because both models implement the *same machine
definition*: fetch consumes bandwidth minus stolen slots at a single
well-defined cycle, retirement is in program order, p-thread launches
happen at the trigger's dispatch cycle.  Any formulation of that
definition — loop or event heap — must produce the same committed
state, the same event counts and the same cycle count; a mismatch is a
model bug, never noise.  The fields come from the payloads themselves,
so a counter added to ``SimStats`` is under the contract the day it
exists.  IPC is instructions over cycles, so it is exact once both are.

:class:`ParityReport` keeps every comparison; on failure,
:attr:`ParityReport.first_divergence` names the first diverging check
in the pinned order (the earliest observable consequence of the bug:
``registers`` before any count, any count before ``cycles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import get_registry as obs_registry, get_tracer

@dataclass
class ParityCheck:
    """One named comparison between the two models."""

    name: str
    reference: object  # trace-driven model's value
    value: object  # event-driven model's value
    ok: bool
    detail: str = ""  # e.g. first differing keys of a state diff

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "reference": _jsonable(self.reference),
            "value": _jsonable(self.value),
            "ok": self.ok,
            "detail": self.detail,
        }

    def render(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        text = (
            f"{self.name} {status}: "
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
) -> ParityReport:
    """Apply the pinned parity contract to two model outcomes."""
    report = ParityReport(workload=workload, mode=mode, engine=engine)
    checks = report.checks

    # 1. Committed architectural state, before any derived count.
    regs_ok = trace.registers == event.registers
    checks.append(
        ParityCheck(
            "registers",
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
            len(trace.memory_words),
            len(event.memory_words),
            mem_ok,
            detail="" if mem_ok else _preview_diff(
                dict(trace.memory_words), dict(event.memory_words)
            ),
        )
    )

    # 2. Every stats field either model reported.  Cycles go last: most
    # model bugs move them, so a bug that also shows in a count is
    # reported at the count.
    names = [
        name
        for name in dict.fromkeys([*trace.stats, *event.stats])
        if name != "cycles"
    ]
    for name in names + ["cycles"]:
        left, right = trace.stats.get(name), event.stats.get(name)
        checks.append(ParityCheck(name, left, right, left == right))

    return report


def _capture(sim, mode, max_instructions: int) -> ParityRun:
    stats = sim.run(mode, max_instructions=max_instructions)
    memory = sim.last_memory
    words = memory.snapshot() if memory is not None else {}
    return ParityRun(
        stats=stats.to_dict(),
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
        )
    registry = obs_registry()
    registry.counter("parity.comparisons").inc()
    if not report.ok:
        registry.counter("parity.divergences").inc()
    return report
