"""Ablation: conventional stride prefetching vs. pre-execution.

The paper's opening claim: "certain static problem loads defy address
prediction and their misses elude prefetching" — pre-execution exists
for those loads.  This bench quantifies the claim on the suite: a
classic stride prefetcher (Chen & Baer, the paper's reference [1])
against the framework's p-threads, coverage and speedup side by side.

Expected shape: stride prefetching helps streaming access patterns and
is useless on computed/pointer addresses (vpr.p, mcf, parser), where
pre-execution does its work.
"""

from benchmarks.conftest import run_once
from repro.harness.experiment import ExperimentConfig
from repro.harness.report import render_table
from repro.timing.config import BASELINE, MachineConfig
from repro.timing.core import TimingSimulator


def measure(runner, workloads):
    rows = []
    for name in workloads:
        result = runner.run(ExperimentConfig(workload=name))
        workload = runner.workload(name, "train")
        stride = TimingSimulator(
            workload.program,
            workload.hierarchy,
            MachineConfig(stride_prefetch=True),
        ).run(BASELINE)
        rows.append(
            dict(
                name=name,
                base_ipc=result.baseline.ipc,
                stride_cov=100.0 * stride.coverage_fraction,
                stride_speedup=100.0 * stride.speedup_over(result.baseline),
                preexec_cov=100.0 * result.coverage,
                preexec_speedup=100.0 * result.speedup,
            )
        )
    return rows


def test_stride_vs_preexecution(benchmark, runner, workloads, save_report):
    rows = run_once(benchmark, lambda: measure(runner, workloads))
    save_report(
        "ablation_stride_vs_preexecution",
        render_table(
            ["benchmark", "base IPC", "stride cov%", "stride speedup%",
             "pre-exec cov%", "pre-exec speedup%"],
            [
                [r["name"], r["base_ipc"], r["stride_cov"],
                 r["stride_speedup"], r["preexec_cov"], r["preexec_speedup"]]
                for r in rows
            ],
            title="Ablation: stride prefetching vs. pre-execution",
        ),
    )
    by_name = {r["name"]: r for r in rows}
    # Computed/pointer addresses defy address prediction.
    for hard in ("vpr.p", "mcf", "parser"):
        if hard in by_name:
            assert by_name[hard]["stride_cov"] < 20.0
    # Pre-execution reaches misses stride prefetching cannot, overall.
    total_pre = sum(r["preexec_cov"] for r in rows)
    total_stride = sum(r["stride_cov"] for r in rows)
    assert total_pre > total_stride
