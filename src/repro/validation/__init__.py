"""Model validation utilities."""

from repro.validation.parity import (
    ParityCheck,
    ParityReport,
    ParityRun,
    compare_runs,
    run_parity,
)

__all__ = [
    "ParityCheck",
    "ParityReport",
    "ParityRun",
    "compare_runs",
    "run_parity",
]
