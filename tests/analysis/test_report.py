"""Tests for the shared diagnostic-reporting module.

Covers text rendering, location formatting, severity
helpers, deterministic sorting, the ``REPRO_VERIFY`` switch, and the
strict/assert paths the pipeline and CLIs lean on.
"""

import pytest

from repro.analysis.report import (
    Diagnostic,
    Severity,
    VerificationError,
    assert_clean,
    errors,
    render_text,
    sort_diagnostics,
    verification_enabled,
)


def diag(code="PT001", severity=Severity.ERROR, message="boom", **loc):
    return Diagnostic(code, severity, message, **loc)


class TestDiagnostic:
    def test_location_combinations(self):
        assert diag().location() == ""
        assert diag(pc=7).location() == "pc#0007"
        assert diag(line=3).location() == "line 3"
        assert diag(line=3, column=9).location() == "line 3:9"
        assert diag(position=2).location() == "body[2]"
        assert (
            diag(line=1, column=2, pc=3, position=4).location()
            == "line 1:2 pc#0003 body[4]"
        )

    def test_render_with_and_without_location(self):
        assert diag().render() == "error PT001: boom"
        assert diag(pc=12).render() == "error PT001 at pc#0012: boom"
        assert (
            diag(severity=Severity.WARNING).render()
            == "warning PT001: boom"
        )

    def test_to_dict_omits_unset_locations(self):
        payload = diag(pc=5).to_dict()
        assert payload == {
            "code": "PT001",
            "severity": "error",
            "message": "boom",
            "pc": 5,
        }
        assert "line" not in payload
        assert "position" not in payload

    def test_severity_ordering_and_str(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert str(Severity.INFO) == "info"
        assert str(Severity.ERROR) == "error"


class TestHelpers:
    def test_errors_filters_severity(self):
        mixed = [
            diag(severity=Severity.INFO),
            diag(severity=Severity.ERROR),
            diag(severity=Severity.WARNING),
        ]
        assert [d.severity for d in errors(mixed)] == [Severity.ERROR]

    def test_sort_diagnostics_orders_by_code_then_location(self):
        unsorted = [
            diag(code="PT002", pc=1),
            diag(code="PT001", pc=9),
            diag(code="PT001", pc=2, message="zz"),
            diag(code="PT001", pc=2, message="aa"),
            diag(code="PT001"),
        ]
        ordered = sort_diagnostics(unsorted)
        keys = [
            (d.code, d.pc if d.pc is not None else -1, d.message)
            for d in ordered
        ]
        assert keys == sorted(keys)
        assert ordered[0].pc is None  # unlocated first within a code

    def test_sort_is_stable_presentation_order(self):
        once = sort_diagnostics([diag(pc=3), diag(pc=1), diag(pc=2)])
        twice = sort_diagnostics(list(reversed(once)))
        assert [d.pc for d in once] == [d.pc for d in twice] == [1, 2, 3]


class TestRendering:
    def test_render_text_empty_is_clean(self):
        assert render_text([]) == "  clean (no diagnostics)"
        assert (
            render_text([], title="mcf:")
            == "mcf:\n  clean (no diagnostics)"
        )

    def test_render_text_lists_findings(self):
        out = render_text([diag(), diag(pc=4)], title="head")
        lines = out.split("\n")
        assert lines[0] == "head"
        assert lines[1] == "  error PT001: boom"
        assert lines[2] == "  error PT001 at pc#0004: boom"


class TestVerificationSwitch:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VERIFY", value)
        assert verification_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "nope"])
    def test_other_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VERIFY", value)
        assert not verification_enabled()

    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert not verification_enabled()


class TestAssertClean:
    def test_passes_on_warnings_and_notes(self):
        assert_clean(
            [diag(severity=Severity.INFO), diag(severity=Severity.WARNING)],
            "after optimize",
        )

    def test_raises_on_errors_with_context(self):
        with pytest.raises(VerificationError) as excinfo:
            assert_clean(
                [diag(severity=Severity.WARNING), diag(pc=3)], "after merge"
            )
        error = excinfo.value
        assert error.context == "after merge"
        # Only the fatal findings are carried on the exception.
        assert [d.severity for d in error.diagnostics] == [Severity.ERROR]
        assert "after merge" in str(error)
        assert "pc#0003" in str(error)

    def test_verification_error_is_assertion_error(self):
        # Debug-mode contract: production code that catches
        # AssertionError also catches verification failures.
        assert issubclass(VerificationError, AssertionError)
