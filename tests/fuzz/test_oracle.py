"""Tests for the differential oracle."""

import pytest

import repro.engine.functional as functional_module
import repro.fuzz.oracle as oracle_module
import repro.slicing.slice_tree as slice_tree_module
from repro.engine.compiler import tier_threshold
from repro.fuzz.generator import generate
from repro.fuzz.oracle import CHECK_FAMILIES, CheckFailure, run_oracle


@pytest.fixture(scope="module")
def clean_report():
    return run_oracle(generate(3))


class TestCleanRun:
    def test_clean_workload_passes(self, clean_report):
        assert clean_report.ok, [f.render() for f in clean_report.failures]

    def test_all_seven_families_run(self, clean_report):
        assert clean_report.families_run == list(CHECK_FAMILIES)
        assert "timing_parity" in clean_report.families_run

    def test_stats_describe_the_run(self, clean_report):
        stats = clean_report.stats
        assert stats["instructions"] > 0
        assert stats["loads"] > 0
        assert stats["l1_misses"] >= stats["l2_misses"]

    def test_to_dict_is_json_shaped(self, clean_report):
        payload = clean_report.to_dict()
        assert payload["ok"] is True
        assert payload["failures"] == []
        assert payload["families_run"] == list(CHECK_FAMILIES)
        assert payload["seed"] == 3

    def test_deterministic_verdicts(self, clean_report):
        again = run_oracle(generate(3))
        assert again.to_dict() == clean_report.to_dict()


class TestFailureDetection:
    def test_timing_divergence_is_caught(self, monkeypatch):
        # Inject a one-cycle accounting bug into the eager column only
        # (the oracle scopes REPRO_TIER_THRESHOLD=0 around its runs);
        # the oracle must flag the engine mismatch while still running
        # every family.
        real_run = oracle_module.TimingSimulator.run

        def skewed_run(self, *args, **kwargs):
            stats = real_run(self, *args, **kwargs)
            if tier_threshold() == 0:
                stats.cycles += 1
            return stats

        monkeypatch.setattr(
            oracle_module.TimingSimulator, "run", skewed_run
        )
        report = run_oracle(generate(3))
        assert not report.ok
        families = {f.family for f in report.failures}
        assert families == {"engine_equivalence"}
        checks = {f.check for f in report.failures}
        assert "timing_baseline_eager" in checks
        # The bug was injected into the eager column only; the
        # default-threshold tiered column must stay clean.
        assert not any(c.endswith("_tiered") for c in checks)
        assert report.families_run == list(CHECK_FAMILIES)

    def test_eager_compile_fallback_is_caught(self, monkeypatch):
        # A whole-program compile that silently fails leaves the eager
        # run interpreted: results still agree, so only the
        # every-block-compiled check can see it.
        real_compile = functional_module.compile_functional

        def no_whole_program(decoded, tracing, caching, only_blocks=None):
            if only_blocks is None:
                return None
            return real_compile(decoded, tracing, caching, only_blocks)

        monkeypatch.setattr(
            functional_module, "compile_functional", no_whole_program
        )
        report = run_oracle(generate(3))
        failures = [
            f for f in report.failures
            if (f.family, f.check) == ("engine_equivalence",
                                       "engine_availability")
        ]
        assert len(failures) == 1, report.render()
        assert "functional: eager run compiled 0 of" in failures[0].message
        assert report.failed_checks() == {
            ("engine_equivalence", "engine_availability")
        }

    def test_inexact_slice_derivation_is_caught(self, monkeypatch):
        # A derivation that skips both cuts hands a narrower request the
        # table's wider slices.  An exact-config build cuts nothing, so
        # selection stays clean and only slice_prefix can see it.
        real_trees = slice_tree_module.SliceTable.trees

        def uncut(self, trace, scope, depth, lo=0, hi=None):
            return real_trees(self, trace, self.scope, self.depth, lo, hi)

        monkeypatch.setattr(slice_tree_module.SliceTable, "trees", uncut)
        report = run_oracle(generate(3))
        assert {(f.family, f.check) for f in report.failures} == {
            ("model_invariants", "slice_prefix")
        }
        assert report.families_run == list(CHECK_FAMILIES)

    def test_committed_state_divergence_is_caught(self, monkeypatch):
        # Corrupt the timing simulator's committed register capture:
        # the functional-vs-timing family must see it.
        real_run = oracle_module.TimingSimulator.run

        def corrupting_run(self, *args, **kwargs):
            stats = real_run(self, *args, **kwargs)
            self.last_registers = list(self.last_registers)
            self.last_registers[5] ^= 1
            return stats

        monkeypatch.setattr(
            oracle_module.TimingSimulator, "run", corrupting_run
        )
        report = run_oracle(generate(3))
        checks = report.failed_checks()
        assert ("functional_vs_timing", "baseline_registers") in checks
        assert ("functional_vs_timing", "preexec_registers") in checks

    def test_event_model_cycle_skew_is_caught(self, monkeypatch):
        # Inject a beyond-band cycle skew into the event-driven model
        # only: the timing_parity family must flag the band breach in
        # both variants while every other family stays clean (the
        # trace-driven runs they compare are untouched).
        import repro.timing.eventsim as eventsim_module

        real_run = eventsim_module.EventSimulator.run

        def skewed_run(self, *args, **kwargs):
            stats = real_run(self, *args, **kwargs)
            stats.cycles = stats.cycles * 2 + 1000  # far beyond band
            return stats

        monkeypatch.setattr(
            eventsim_module.EventSimulator, "run", skewed_run
        )
        report = run_oracle(generate(3))
        assert not report.ok
        families = {f.family for f in report.failures}
        assert families == {"timing_parity"}
        checks = {f.check for f in report.failures}
        assert "baseline_cycles" in checks
        assert "preexec_cycles" in checks
        assert report.families_run == list(CHECK_FAMILIES)

    def test_event_model_state_divergence_is_caught(self, monkeypatch):
        # Corrupt the event model's committed register capture: the
        # parity contract's first (state) check must attribute it.
        import repro.timing.eventsim as eventsim_module

        real_run = eventsim_module.EventSimulator.run

        def corrupting_run(self, *args, **kwargs):
            stats = real_run(self, *args, **kwargs)
            self.last_registers = list(self.last_registers)
            self.last_registers[5] ^= 1
            return stats

        monkeypatch.setattr(
            eventsim_module.EventSimulator, "run", corrupting_run
        )
        report = run_oracle(generate(3))
        checks = report.failed_checks()
        assert ("timing_parity", "baseline_registers") in checks
        assert ("timing_parity", "preexec_registers") in checks
        families = {f.family for f in report.failures}
        assert families == {"timing_parity"}

    def test_failure_identity_round_trips(self):
        failure = CheckFailure("memory_sanity", "halted", "did not halt")
        assert failure.to_dict() == {
            "family": "memory_sanity",
            "check": "halted",
            "message": "did not halt",
        }
        assert "memory_sanity/halted" in failure.render()
