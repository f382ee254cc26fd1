"""Diagnostic records shared by the p-thread verifier and program linter.

A :class:`Diagnostic` is one finding with a stable code (``PT001`` ...
``PT006`` for p-thread invariants, ``PL002`` ... ``PL005`` for
workload-level lints, ``SL001`` for dynamic-slice structure), a
severity, a message, and whatever location information applies: a
source-program PC, a p-thread body position, or an assembly source
line/column.

The module also owns the debug-mode verification switch: when the
``REPRO_VERIFY`` environment variable is truthy, the slicer, optimizer,
merger, and selector run a verification post-pass after every
transformation and raise :class:`VerificationError` on any
error-severity finding.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so comparisons read naturally."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One verifier/linter finding.

    Attributes:
        code: stable diagnostic code (``PT001``, ``PL003``, ...).
        severity: :class:`Severity` of the finding.
        message: human-readable description.
        pc: source-program PC the finding refers to, if any.
        position: p-thread body position, if any.
        line / column: assembly source location (1-based), if any.
    """

    code: str
    severity: Severity
    message: str
    pc: Optional[int] = None
    position: Optional[int] = None
    line: Optional[int] = None
    column: Optional[int] = None

    def location(self) -> str:
        """Render whichever location fields are set (may be empty)."""
        parts = []
        if self.line is not None:
            loc = f"line {self.line}"
            if self.column is not None:
                loc += f":{self.column}"
            parts.append(loc)
        if self.pc is not None:
            parts.append(f"pc#{self.pc:04d}")
        if self.position is not None:
            parts.append(f"body[{self.position}]")
        return " ".join(parts)

    def render(self) -> str:
        location = self.location()
        where = f" at {location}" if location else ""
        return f"{self.severity} {self.code}{where}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready representation (used by ``repro lint --format json``)."""
        payload = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }
        for key in ("pc", "position", "line", "column"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload


def errors(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Only the error-severity findings."""
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def sort_diagnostics(
    diagnostics: Iterable[Diagnostic],
) -> List[Diagnostic]:
    """Deterministic presentation order: (code, location, message).

    Every reporting surface (``repro lint``, the p-thread verifier,
    the translation validator) sorts through here so CI diffs and
    corpus reproducers are byte-stable regardless of discovery order.
    """
    return sorted(
        diagnostics,
        key=lambda d: (
            d.code,
            d.pc if d.pc is not None else -1,
            d.position if d.position is not None else -1,
            d.line if d.line is not None else -1,
            d.column if d.column is not None else -1,
            d.message,
        ),
    )


def render_text(
    diagnostics: Sequence[Diagnostic], title: Optional[str] = None
) -> str:
    """Multi-line text report (one finding per line)."""
    lines: List[str] = []
    if title is not None:
        lines.append(title)
    if not diagnostics:
        lines.append("  clean (no diagnostics)")
    lines.extend("  " + d.render() for d in diagnostics)
    return "\n".join(lines)


#: Environment variable enabling transformation post-pass verification.
VERIFY_ENV = "REPRO_VERIFY"

_TRUTHY = {"1", "true", "yes", "on"}


def verification_enabled() -> bool:
    """True when ``REPRO_VERIFY`` asks for debug-mode verification."""
    return os.environ.get(VERIFY_ENV, "").strip().lower() in _TRUTHY


class VerificationError(AssertionError):
    """An invariant the pipeline must preserve was violated.

    Subclasses ``AssertionError`` because verification is a debug-mode
    assertion: production runs (without ``REPRO_VERIFY``) never raise.
    """

    def __init__(self, context: str, diagnostics: Sequence[Diagnostic]) -> None:
        self.context = context
        self.diagnostics = list(diagnostics)
        super().__init__(render_text(self.diagnostics, title=context))


def assert_clean(diagnostics: Sequence[Diagnostic], context: str) -> None:
    """Raise :class:`VerificationError` on any error-severity finding.

    Warnings and notes pass: transformations on unoptimized bodies
    legitimately leave dead computation or unconsumed stores behind,
    and those are reported — not fatal — findings.
    """
    fatal = errors(diagnostics)
    if fatal:
        raise VerificationError(context, fatal)
