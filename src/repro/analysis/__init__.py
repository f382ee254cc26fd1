"""Static analysis over the toy ISA: dataflow, p-thread verification,
and workload linting.

Public surface::

    from repro.analysis import (
        ControlFlowGraph, constant_registers,               # dataflow
        verify_body, verify_pthread, verify_selection,       # verifier
        lint_program, lint_source, lint_workload,            # linter
        Diagnostic, Severity, verification_enabled,          # reporting
        validate_timing,                                     # transval
    )
"""

from repro.analysis.dataflow import ControlFlowGraph, constant_registers
from repro.analysis.program_lint import (
    lint_program,
    lint_source,
    lint_workload,
)
from repro.analysis.report import (
    VERIFY_ENV,
    Diagnostic,
    Severity,
    VerificationError,
    assert_clean,
    errors,
    max_severity,
    render_json,
    render_text,
    sort_diagnostics,
    verification_enabled,
)
from repro.analysis.transval import (
    CG_CODES,
    TimingParams,
    TransvalResult,
    fallback_reason,
    validate_timing,
)
from repro.analysis.verifier import (
    summarize,
    verify_body,
    verify_pthread,
    verify_selection,
    verify_slice,
)

__all__ = [
    "ControlFlowGraph",
    "constant_registers",
    "lint_program",
    "lint_source",
    "lint_workload",
    "VERIFY_ENV",
    "Diagnostic",
    "Severity",
    "VerificationError",
    "assert_clean",
    "errors",
    "max_severity",
    "render_json",
    "render_text",
    "sort_diagnostics",
    "verification_enabled",
    "CG_CODES",
    "TimingParams",
    "TransvalResult",
    "fallback_reason",
    "validate_timing",
    "summarize",
    "verify_body",
    "verify_pthread",
    "verify_selection",
    "verify_slice",
]
