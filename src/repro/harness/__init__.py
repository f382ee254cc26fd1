"""Experiment harness: pipeline, parallel sweeps, caching, reporting."""

from repro.harness.artifacts import ArtifactCache, stable_key
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
)
from repro.harness.figures import (
    FIGURE_METRICS,
    FigureData,
    figure4_scope_length,
    figure5_opt_merge,
    figure6_granularity,
    figure7_input_sets,
    figure8_memory_latency,
    figure8b_processor_width,
)
from repro.harness.parallel import CellError, SweepError, resolve_jobs
from repro.harness.parity import (
    PARITY_MODES,
    parity_suite,
    parity_workload,
    render_parity,
)
from repro.harness.report import fmt, render_perf, render_series, render_table
from repro.harness.tables import (
    Table1Row,
    Table2Row,
    render_table1,
    render_table2,
    table1,
    table2,
)

__all__ = [
    "ArtifactCache",
    "CellError",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "FIGURE_METRICS",
    "FigureData",
    "PARITY_MODES",
    "SweepError",
    "Table1Row",
    "Table2Row",
    "figure4_scope_length",
    "figure5_opt_merge",
    "figure6_granularity",
    "figure7_input_sets",
    "figure8_memory_latency",
    "figure8b_processor_width",
    "fmt",
    "parity_suite",
    "parity_workload",
    "render_parity",
    "render_perf",
    "render_series",
    "render_table",
    "render_table1",
    "render_table2",
    "resolve_jobs",
    "stable_key",
    "table1",
    "table2",
]
