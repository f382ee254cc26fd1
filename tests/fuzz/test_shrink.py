"""Tests for failure shrinking and corpus persistence.

The repo currently has no real cross-implementation bug to shrink, so
these tests inject synthetic oracle verdicts: a fake oracle that fails
exactly when a marker instruction survives in the source.  That pins
the delta-debugging behaviour — monotone reduction, failure-identity
preservation, label handling — independently of any actual bug.
"""

import sys

import pytest

import repro.fuzz.shrink  # noqa: F401  (the package attr is the function)
from repro.fuzz.generator import generate
from repro.fuzz.oracle import CheckFailure, OracleReport
from repro.fuzz.shrink import (
    FAMILY_LEVEL_IDENTITY,
    _preserves_failure,
    load_reproducer,
    shrink,
    write_reproducer,
)

shrink_module = sys.modules["repro.fuzz.shrink"]


def fake_oracle(marker="lw", family="engine_equivalence", check="functional"):
    """An oracle failing iff any source line contains ``marker``."""

    def run(workload, max_instructions=0):
        report = OracleReport(
            name=workload.name, seed=workload.seed, shape=workload.shape
        )
        report.families_run = [family]
        if any(marker in line for line in workload.source.splitlines()):
            report.failures.append(
                CheckFailure(family, check, f"{marker!r} present")
            )
        return report

    return run


class TestShrink:
    def test_reduces_to_the_marker_line(self, monkeypatch):
        monkeypatch.setattr(shrink_module, "run_oracle", fake_oracle())
        workload = generate(6, "mixed")
        result = shrink(workload, max_instructions=1_000)
        assert result.reduced
        assert result.shrunk_lines == 1
        assert "lw" in result.workload.source
        assert result.workload.program.instructions  # still assembles

    def test_preserved_failure_identity(self, monkeypatch):
        monkeypatch.setattr(shrink_module, "run_oracle", fake_oracle())
        result = shrink(generate(6, "mixed"), max_instructions=1_000)
        assert result.failed_checks == [("engine_equivalence", "functional")]
        assert result.report.failed_checks() == {
            ("engine_equivalence", "functional")
        }

    def test_clean_workload_is_rejected(self, monkeypatch):
        monkeypatch.setattr(
            shrink_module, "run_oracle", fake_oracle(marker="\x00never")
        )
        with pytest.raises(ValueError, match="no failure to shrink"):
            shrink(generate(6), max_instructions=1_000)

    def test_budget_caps_oracle_evaluations(self, monkeypatch):
        monkeypatch.setattr(shrink_module, "run_oracle", fake_oracle())
        result = shrink(generate(6, "mixed"), max_instructions=1_000, budget=5)
        assert result.evaluations <= 5

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(shrink_module, "run_oracle", fake_oracle())
        first = shrink(generate(6, "mixed"), max_instructions=1_000)
        second = shrink(generate(6, "mixed"), max_instructions=1_000)
        assert first.workload.source == second.workload.source
        assert first.evaluations == second.evaluations


def drifting_oracle(family, marker="lw"):
    """An oracle whose *check name* drifts as the input shrinks.

    With two or more marker lines it reports ``preexec_registers``;
    with exactly one it reports ``preexec_cycles`` — modelling how a
    parity reduction legitimately moves the first observable
    divergence between checks of the same family.
    """

    def run(workload, max_instructions=0):
        report = OracleReport(
            name=workload.name, seed=workload.seed, shape=workload.shape
        )
        report.families_run = [family]
        hits = sum(
            marker in line for line in workload.source.splitlines()
        )
        if hits >= 2:
            report.failures.append(
                CheckFailure(family, "preexec_registers", "state diverged")
            )
        elif hits == 1:
            report.failures.append(
                CheckFailure(family, "preexec_cycles", "cycles diverged")
            )
        return report

    return run


class TestFailureIdentity:
    def test_preserves_failure_exact_match(self):
        target = {("engine_equivalence", "functional")}
        assert _preserves_failure(target, target)
        assert not _preserves_failure(
            {("engine_equivalence", "timing")}, target
        )
        assert not _preserves_failure(set(), target)

    def test_preserves_failure_relaxes_parity_family_only(self):
        target = {("timing_parity", "preexec_registers")}
        # Same family, different check: preserved for the parity family.
        assert _preserves_failure(
            {("timing_parity", "preexec_cycles")}, target
        )
        # A different family never satisfies the relaxed match.
        assert not _preserves_failure(
            {("engine_equivalence", "preexec_registers")}, target
        )

    def test_parity_family_is_registered_for_relaxed_identity(self):
        assert "timing_parity" in FAMILY_LEVEL_IDENTITY

    def test_parity_shrink_follows_drifting_check_name(self, monkeypatch):
        # The reduction from >=2 marker lines to 1 changes the check
        # name; family-level identity lets the shrinker take it.
        monkeypatch.setattr(
            shrink_module,
            "run_oracle",
            drifting_oracle("timing_parity"),
        )
        result = shrink(generate(6, "mixed"), max_instructions=1_000)
        assert result.shrunk_lines == 1
        assert result.report.failed_checks() == {
            ("timing_parity", "preexec_cycles")
        }

    def test_strict_family_stops_at_the_drift_point(self, monkeypatch):
        # For every other family the identity stays (family, check):
        # the same drifting oracle cannot shrink below two markers,
        # because dropping to one renames the check.
        monkeypatch.setattr(
            shrink_module,
            "run_oracle",
            drifting_oracle("engine_equivalence"),
        )
        result = shrink(generate(6, "mixed"), max_instructions=1_000)
        source_lines = result.workload.source.splitlines()
        assert sum("lw" in line for line in source_lines) == 2
        assert result.report.failed_checks() == {
            ("engine_equivalence", "preexec_registers")
        }


class TestCorpus:
    @pytest.fixture
    def result(self, monkeypatch):
        monkeypatch.setattr(shrink_module, "run_oracle", fake_oracle())
        return shrink(generate(6, "mixed"), max_instructions=1_000)

    def test_write_and_load_round_trip(self, result, tmp_path):
        path = write_reproducer(result, tmp_path / "corpus")
        assert path.name == "fuzz-000006-mixed.json"
        workload = load_reproducer(path)
        assert workload.source == result.workload.source
        assert workload.seed == 6
        assert workload.shape == "mixed"
        assert workload.hierarchy == result.workload.hierarchy
        assert (
            workload.program.data.words == result.workload.program.data.words
        )
        assert workload.metadata["failed_checks"] == [
            ["engine_equivalence", "functional"]
        ]

    def test_reproducer_schema(self, result, tmp_path):
        import json

        path = write_reproducer(result, tmp_path / "corpus")
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "format",
            "name",
            "seed",
            "shape",
            "failed_checks",
            "failures",
            "source",
            "data_words",
            "hierarchy",
            "shrink",
        }
        assert payload["format"] == 1
        assert payload["shrink"]["shrunk_lines"] == 1
        assert payload["shrink"]["original_lines"] > 1
        # data_words are sorted [addr, value] pairs.
        addresses = [pair[0] for pair in payload["data_words"]]
        assert addresses == sorted(addresses)
