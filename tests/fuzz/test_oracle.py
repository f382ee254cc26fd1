"""Tests for the differential oracle."""

import pytest

import repro.fuzz.oracle as oracle_module
import repro.slicing.slice_tree as slice_tree_module
import repro.timing.core as timing_module
from repro.engine.compiler import ENGINE_TIERED
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
        # Inject a one-cycle accounting bug into the tiered column only;
        # the oracle must flag the engine mismatch while still running
        # every family.
        real_run = oracle_module.TimingSimulator.run

        def skewed_run(self, *args, **kwargs):
            stats = real_run(self, *args, **kwargs)
            if self.engine == ENGINE_TIERED:
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
        assert checks == {"timing_baseline_tiered", "timing_preexec_tiered"}
        assert report.families_run == list(CHECK_FAMILIES)

    def test_eager_compile_fallback_is_caught(self, monkeypatch):
        # A whole-program compile that silently fails leaves the tiered
        # runs interpreted: results still agree, so only the
        # every-block-compiled check can see it.
        monkeypatch.setattr(
            timing_module, "compile_timing", lambda decoded, **shape: None
        )
        report = run_oracle(generate(3))
        failures = [
            f for f in report.failures
            if (f.family, f.check) == ("engine_equivalence",
                                       "engine_availability")
        ]
        assert [f.message.split(":")[0] for f in failures] == [
            "timing baseline", "timing pre-execution",
        ], report.render()
        for failure in failures:
            assert ": tiered run compiled 0 of" in failure.message
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
        # Skew the event-driven model's cycles by one, and nothing
        # else: the timing_parity family must flag it in both variants
        # while every other family stays clean (the trace-driven runs
        # they compare are untouched).
        import repro.timing.eventsim as eventsim_module

        real_run = eventsim_module.EventSimulator.run

        def skewed_run(self, *args, **kwargs):
            stats = real_run(self, *args, **kwargs)
            stats.cycles += 1
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
