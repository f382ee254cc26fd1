"""Regeneration of the paper's Figures 4–8 (plus the width study).

Every figure function returns ``FigureData``: per benchmark, per bar, a
set of metrics matching the paper's chart vocabulary — L2 miss coverage
and full coverage (percent of baseline misses), instruction overhead
(p-thread instructions per retired instruction), average p-thread
length, and percent speedup over the common base configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
)
from repro.harness.report import render_series
from repro.model.params import SelectionConstraints
from repro.timing.config import MachineConfig
from repro.workloads.common import SUITE_HIERARCHY
from repro.workloads.suite import SUITE

#: Metrics each figure reports, in the paper's chart order.
FIGURE_METRICS = (
    "coverage_pct",
    "full_coverage_pct",
    "overhead_pct",
    "pthread_len",
    "speedup_pct",
)


@dataclass
class FigureData:
    """One regenerated figure."""

    title: str
    bar_labels: List[str]
    #: data[benchmark][metric][bar_index]
    data: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    results: Dict[str, List[ExperimentResult]] = field(default_factory=dict)

    def add(self, benchmark: str, result: ExperimentResult) -> None:
        row = result.summary_row()
        metrics = self.data.setdefault(
            benchmark, {name: [] for name in row}
        )
        for name, value in row.items():
            metrics[name].append(value)
        self.results.setdefault(benchmark, []).append(result)

    def render(self) -> str:
        return render_series(
            self.title, self.bar_labels, FIGURE_METRICS, self.data
        )

    def series(self, benchmark: str, metric: str) -> List[float]:
        return self.data[benchmark][metric]


def _sweep(
    title: str,
    bar_labels: Sequence[str],
    config_for: Callable[[str, int], ExperimentConfig],
    runner: ExperimentRunner,
    workloads: Sequence[str],
) -> FigureData:
    """Run a (workload x bar) sweep through :meth:`ExperimentRunner.run_all`.

    All cells are materialized up front; results are folded back in
    deterministic (workload, bar) order, so the rendered figure is
    byte-identical whatever the runner's job count.  A failed cell
    raises :class:`~repro.harness.parallel.SweepError` with its config
    and traceback.
    """
    figure = FigureData(title=title, bar_labels=list(bar_labels))
    configs = [
        config_for(name, bar_index)
        for name in workloads
        for bar_index in range(len(bar_labels))
    ]
    for result in runner.run_all(configs):
        figure.add(result.config.workload, result)
    return figure


def figure4_scope_length(
    runner: ExperimentRunner,
    workloads: Sequence[str] = tuple(SUITE),
    combos: Sequence = ((256, 8), (512, 16), (1024, 32), (2048, 64)),
) -> FigureData:
    """Figure 4: combined impact of slicing scope and p-thread length."""

    def config_for(name: str, bar: int) -> ExperimentConfig:
        scope, length = combos[bar]
        return ExperimentConfig(
            workload=name,
            constraints=SelectionConstraints(
                scope=scope, max_pthread_length=length
            ),
        )

    return _sweep(
        "Figure 4: slicing scope x p-thread length",
        [f"{scope}/{length}" for scope, length in combos],
        config_for,
        runner,
        workloads,
    )


def figure5_opt_merge(
    runner: ExperimentRunner,
    workloads: Sequence[str] = tuple(SUITE),
) -> FigureData:
    """Figure 5: impact of p-thread optimization and merging."""
    variants = [
        ("none", False, False),
        ("opt", True, False),
        ("merge", False, True),
        ("opt+merge", True, True),
    ]

    def config_for(name: str, bar: int) -> ExperimentConfig:
        _, optimize, merge = variants[bar]
        return ExperimentConfig(
            workload=name,
            constraints=SelectionConstraints(optimize=optimize, merge=merge),
        )

    return _sweep(
        "Figure 5: p-thread optimization and merging",
        [label for label, _, _ in variants],
        config_for,
        runner,
        workloads,
    )


def figure6_granularity(
    runner: ExperimentRunner,
    workloads: Sequence[str] = tuple(SUITE),
    divisors: Sequence[int] = (1, 8, 32, 128),
) -> FigureData:
    """Figure 6: p-thread selection granularity.

    The paper's regions are 100M/10M/1M instructions of billion-scale
    runs; we scale proportionally — the whole run divided by 8, 32 and
    128 — preserving the regions-per-run ratios.
    """

    def config_for(name: str, bar: int) -> ExperimentConfig:
        divisor = divisors[bar]
        if divisor == 1:
            return ExperimentConfig(workload=name)
        workload = runner.workload(name, "train")
        trace_len = len(runner.trace(workload).trace)
        return ExperimentConfig(
            workload=name, granularity=max(1000, trace_len // divisor)
        )

    return _sweep(
        "Figure 6: selection granularity",
        ["run/" + str(d) if d > 1 else "full run" for d in divisors],
        config_for,
        runner,
        workloads,
    )


def figure7_input_sets(
    runner: ExperimentRunner,
    workloads: Sequence[str] = tuple(SUITE),
    profile_fraction: float = 0.15,
) -> FigureData:
    """Figure 7: p-thread selection input data set.

    Scenarios: *perfect* (select on the measured run itself), *dynamic*
    (select on a small leading profile phase of the same run — the JIT
    scenario), and *static* (select on the test input — the
    profile-driven static compiler scenario).
    """

    def config_for(name: str, bar: int) -> ExperimentConfig:
        if bar == 0:
            return ExperimentConfig(workload=name)
        if bar == 1:
            workload = runner.workload(name, "train")
            trace_len = len(runner.trace(workload).trace)
            return ExperimentConfig(
                workload=name,
                selection_prefix=max(2000, int(trace_len * profile_fraction)),
            )
        return ExperimentConfig(workload=name, selection_input="test")

    return _sweep(
        "Figure 7: selection input data set",
        ["perfect", "dynamic", "static(test)"],
        config_for,
        runner,
        workloads,
    )


def figure8_memory_latency(
    runner: ExperimentRunner,
    workloads: Sequence[str] = tuple(SUITE),
    latencies: Sequence[int] = (70, 140),
) -> FigureData:
    """Figure 8: response to memory-latency variation (cross-validation).

    Four bars per benchmark: simulated latency L2 with p-threads chosen
    for L1 (cross) and L2 (self), then simulated L1 with p-threads for
    L1 (self) and L2 (cross) — the paper's pXX(tYY) notation.
    """
    low, high = latencies
    cells = [  # (simulated, assumed)
        (high, low),
        (high, high),
        (low, low),
        (low, high),
    ]

    def config_for(name: str, bar: int) -> ExperimentConfig:
        simulated, assumed = cells[bar]
        return ExperimentConfig(
            workload=name,
            hierarchy=SUITE_HIERARCHY.with_mem_latency(simulated),
            model_mem_latency=assumed,
        )

    return _sweep(
        "Figure 8: memory latency cross-validation",
        [f"p{sim}(t{assume})" for sim, assume in cells],
        config_for,
        runner,
        workloads,
    )


def figure8b_processor_width(
    runner: ExperimentRunner,
    workloads: Sequence[str] = tuple(SUITE),
    widths: Sequence[int] = (4, 8),
) -> FigureData:
    """Processor-width cross-validation (paper §4.5, results-similar).

    Same methodology as Figure 8 with sequencing width as the varied
    parameter: pW(tV) simulates width W with p-threads selected
    assuming width V.
    """
    narrow, wide = widths
    cells = [
        (wide, narrow),
        (wide, wide),
        (narrow, narrow),
        (narrow, wide),
    ]

    def config_for(name: str, bar: int) -> ExperimentConfig:
        simulated, assumed = cells[bar]
        return ExperimentConfig(
            workload=name,
            machine=MachineConfig(bw_seq=simulated),
            model_bw_seq=assumed,
        )

    return _sweep(
        "Figure 8b: processor width cross-validation",
        [f"p{sim}(t{assume})" for sim, assume in cells],
        config_for,
        runner,
        workloads,
    )
