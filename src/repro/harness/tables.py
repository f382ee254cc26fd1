"""Regeneration of the paper's Tables 1 and 2.

Table 1 characterizes the benchmark suite (instructions, loads, L2
misses, baseline IPC, perfect-L2 IPC).  Table 2 is the primary result:
pre-execution performance plus the framework's diagnostic predictions
side by side with the simulated measurements — the paper's model
validation methodology (§4.2/§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.harness.report import render_table
from repro.timing.config import MachineConfig
from repro.workloads.suite import SUITE


@dataclass
class Table1Row:
    """One benchmark's characterization."""

    name: str
    instructions: int
    loads: int
    l2_misses: int
    ipc: float
    perfect_l2_ipc: float


def table1(
    runner: ExperimentRunner,
    workloads: Sequence[str] = tuple(SUITE),
    machine: Optional[MachineConfig] = None,
) -> List[Table1Row]:
    """Compute Table 1 (benchmark characterization).

    Table 1 only needs the shared pipeline stages (trace, baseline,
    perfect-L2), so it runs them on the runner directly, one workload
    after another, whatever the runner's job count.
    """
    machine = machine or MachineConfig()
    rows: List[Table1Row] = []
    for name in workloads:
        workload = runner.workload(name, "train")
        functional = runner.trace(workload)
        base = runner.baseline(workload, machine)
        perfect = runner.perfect_l2(workload, machine)
        rows.append(
            Table1Row(
                name=name,
                instructions=functional.instructions,
                loads=functional.loads,
                l2_misses=functional.l2_misses,
                ipc=base.ipc,
                perfect_l2_ipc=perfect.ipc,
            )
        )
    return rows


def render_table1(rows: Sequence[Table1Row]) -> str:
    return render_table(
        ["benchmark", "insns(K)", "loads(K)", "L2 miss(K)", "IPC", "perfect-L2 IPC"],
        [
            [
                row.name,
                row.instructions / 1000.0,
                row.loads / 1000.0,
                row.l2_misses / 1000.0,
                row.ipc,
                row.perfect_l2_ipc,
            ]
            for row in rows
        ],
        title="Table 1: benchmark characterization",
    )


@dataclass
class Table2Row:
    """One benchmark's main results and model validation."""

    name: str
    base_ipc: float
    # measured (Pre-exec section)
    preexec_ipc: float
    launches: int
    insns_per_pthread: float
    covered_pct: float
    full_covered_pct: float
    overhead_execute_ipc: float
    overhead_sequence_ipc: float
    latency_only_ipc: float
    # predicted (Predict section)
    pred_ipc: float
    pred_launches: int
    pred_insns_per_pthread: float
    pred_covered_pct: float
    pred_full_covered_pct: float
    pred_overhead_ipc: float
    pred_latency_ipc: float
    speedup_pct: float = field(init=False)

    def __post_init__(self) -> None:
        self.speedup_pct = (
            100.0 * (self.preexec_ipc / self.base_ipc - 1.0)
            if self.base_ipc
            else 0.0
        )


def table2(
    runner: Optional[ExperimentRunner] = None,
    workloads: Sequence[str] = tuple(SUITE),
    machine: Optional[MachineConfig] = None,
) -> List[Table2Row]:
    """Compute Table 2 (primary results + model validation).

    The per-benchmark cells go through :meth:`ExperimentRunner.run_all`;
    rows always come back in ``workloads`` order.  Without a runner the
    cells run serially with no artifact cache, the cold pass
    ``perfbench/README.md`` regenerates its expected table with.
    """
    runner = runner or ExperimentRunner()
    machine = machine or MachineConfig()
    results = runner.run_all(
        [
            ExperimentConfig(workload=name, machine=machine, validate=True)
            for name in workloads
        ]
    )
    rows: List[Table2Row] = []
    for name, result in zip(workloads, results):
        stats = result.preexec
        prediction = result.selection.prediction
        rows.append(
            Table2Row(
                name=name,
                base_ipc=result.baseline.ipc,
                preexec_ipc=stats.ipc,
                launches=stats.pthread_launches,
                insns_per_pthread=stats.avg_pthread_length,
                covered_pct=100.0 * stats.coverage_fraction,
                full_covered_pct=100.0 * stats.full_coverage_fraction,
                overhead_execute_ipc=result.validation["overhead_execute"].ipc,
                overhead_sequence_ipc=result.validation["overhead_sequence"].ipc,
                latency_only_ipc=result.validation["latency_only"].ipc,
                pred_ipc=prediction.predicted_ipc,
                pred_launches=prediction.launches,
                pred_insns_per_pthread=prediction.avg_pthread_length,
                pred_covered_pct=100.0 * prediction.coverage_fraction,
                pred_full_covered_pct=100.0 * prediction.full_coverage_fraction,
                pred_overhead_ipc=prediction.predicted_overhead_ipc,
                pred_latency_ipc=prediction.predicted_latency_ipc,
            )
        )
    return rows


def render_table2(rows: Sequence[Table2Row]) -> str:
    measured = render_table(
        [
            "benchmark",
            "base IPC",
            "IPC",
            "speedup%",
            "launches",
            "insns/pt",
            "cov%",
            "full%",
            "OH-ex IPC",
            "OH-seq IPC",
            "LT IPC",
        ],
        [
            [
                row.name,
                row.base_ipc,
                row.preexec_ipc,
                row.speedup_pct,
                row.launches,
                row.insns_per_pthread,
                row.covered_pct,
                row.full_covered_pct,
                row.overhead_execute_ipc,
                row.overhead_sequence_ipc,
                row.latency_only_ipc,
            ]
            for row in rows
        ],
        title="Table 2 (measured): pre-execution results",
    )
    predicted = render_table(
        [
            "benchmark",
            "IPC",
            "launches",
            "insns/pt",
            "cov%",
            "full%",
            "OH IPC",
            "LT IPC",
        ],
        [
            [
                row.name,
                row.pred_ipc,
                row.pred_launches,
                row.pred_insns_per_pthread,
                row.pred_covered_pct,
                row.pred_full_covered_pct,
                row.pred_overhead_ipc,
                row.pred_latency_ipc,
            ]
            for row in rows
        ],
        title="Table 2 (predicted): framework diagnostics",
    )
    return measured + "\n\n" + predicted
