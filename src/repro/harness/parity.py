"""Cross-model parity sweep over bundled workloads.

Drives the dual timing models (:mod:`repro.timing.core` vs
:mod:`repro.timing.eventsim`) through the pinned contract of
:mod:`repro.validation.parity` for every requested workload, in the
baseline mode and every p-thread mode.  The p-thread selection
uses the same fixed-IPC shortcut as the lint/verify-codegen drivers: a
structurally representative selection is what parity needs, not the
model's tuned one.

Both models run under one shared instruction cap so the committed
state being compared is well-defined regardless of workload length,
and the sweep stays cheap enough for the CI lint job.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.timing.config import (
    BASELINE,
    LATENCY_ONLY,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    PRE_EXECUTION,
    SimMode,
)
from repro.validation.parity import ParityReport, ParityTolerance, run_parity

#: Modes every workload is compared under: the unassisted machine, the
#: full pre-execution machine (launch + execute + steal + hint), and
#: the three validation modes Table 2's OH-ex, OH-seq and LT columns
#: come from — p-threads with phantom loads, with their instructions
#: discarded after sequencing, and without slot stealing.
PARITY_MODES: Sequence[SimMode] = (
    BASELINE,
    PRE_EXECUTION,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    LATENCY_ONLY,
)

#: Shared per-run instruction cap (see module docstring).
DEFAULT_MAX_INSTRUCTIONS = 120_000


def parity_workload(
    name: str,
    input_name: str = "train",
    engine: Optional[str] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    tolerance: Optional[ParityTolerance] = None,
) -> List[ParityReport]:
    """Parity reports for one workload, one per mode in order."""
    from repro.engine import run_program
    from repro.model import ModelParams, SelectionConstraints
    from repro.selection import select_pthreads
    from repro.workloads import build

    workload = build(name, input_name)
    trace = run_program(workload.program, workload.hierarchy)
    params = ModelParams(
        bw_seq=8,
        unassisted_ipc=1.0,
        mem_latency=workload.hierarchy.mem_latency,
        load_latency=workload.hierarchy.l1.hit_latency,
    )
    selection = select_pthreads(
        workload.program, trace.trace, params, SelectionConstraints()
    )
    reports = []
    for mode in PARITY_MODES:
        reports.append(
            run_parity(
                workload.program,
                workload.hierarchy,
                mode,
                pthreads=selection.pthreads if mode.launch else None,
                engine=engine,
                max_instructions=max_instructions,
                workload=name,
                tolerance=tolerance,
            )
        )
    return reports


def parity_suite(
    names: Sequence[str],
    input_name: str = "train",
    engine: Optional[str] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    tolerance: Optional[ParityTolerance] = None,
) -> List[ParityReport]:
    """Parity reports for many workloads, flattened in suite order."""
    reports: List[ParityReport] = []
    for name in names:
        reports.extend(
            parity_workload(
                name,
                input_name=input_name,
                engine=engine,
                max_instructions=max_instructions,
                tolerance=tolerance,
            )
        )
    return reports


def render_parity(reports: Sequence[ParityReport]) -> str:
    """Fixed-width sweep table plus detail lines for divergences."""
    lines = []
    width = max((len(r.workload) for r in reports), default=8)
    mode_width = max((len(r.mode) for r in reports), default=10)
    for report in reports:
        status = "ok"
        first = report.first_divergence
        if first is not None:
            status = f"DIVERGED at {first.name}"
        lines.append(
            f"{report.workload:<{width}} {report.mode:<{mode_width}} "
            f"engine={report.engine:<8} checks={len(report.checks):<3} "
            f"{status}"
        )
        if first is not None:
            lines.append(f"    {first.render()}")
    diverged = sum(1 for r in reports if not r.ok)
    lines.append(
        f"\n{len(reports)} comparison(s), {diverged} divergence(s)"
    )
    return "\n".join(lines)
