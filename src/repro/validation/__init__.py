"""Model validation utilities."""

from repro.validation.diagnostics import (
    Diagnostic,
    correlation_summary,
    render_validation,
    validate_result,
)
from repro.validation.parity import (
    ParityCheck,
    ParityReport,
    ParityRun,
    compare_runs,
    run_parity,
)

__all__ = [
    "Diagnostic",
    "ParityCheck",
    "ParityReport",
    "ParityRun",
    "compare_runs",
    "correlation_summary",
    "render_validation",
    "run_parity",
    "validate_result",
]
