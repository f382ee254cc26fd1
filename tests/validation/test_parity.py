"""Tests for the cross-model parity contract.

The contract's value is that every invariant can actually fire and
that a failure names the *first* diverging check in the pinned order.
These tests hand-corrupt one dimension of a real event-model run at a
time and assert the report attributes the divergence to exactly that
check — a mutation test over the whole contract surface.
"""

import copy
import dataclasses

import pytest

from repro.fuzz.generator import generate
from repro.timing.config import BASELINE, PRE_EXECUTION
from repro.timing.stats import SimStats
from repro.validation.parity import ParityRun, compare_runs, run_parity

#: Every SimStats field, as its payload names it.
STAT_FIELDS = [field.name for field in dataclasses.fields(SimStats)]


@pytest.fixture(scope="module")
def clean_runs():
    """One real run captured as two (equal) ParityRun views."""
    from repro.timing.eventsim import EventSimulator

    workload = generate(7)
    sim = EventSimulator(workload.program, workload.hierarchy)
    stats = sim.run(BASELINE, max_instructions=60_000)
    run = ParityRun(
        stats=stats.to_dict(),
        registers=list(sim.last_registers),
        memory_words={
            a: v
            for a, v in sim.last_memory.snapshot().items()
            if v != 0
        },
    )
    return run


def corrupted(run: ParityRun) -> ParityRun:
    return copy.deepcopy(run)


def compare(reference: ParityRun, value: ParityRun):
    return compare_runs(
        reference, value, workload="t", mode="baseline", engine="interp"
    )


class TestCleanComparison:
    def test_identical_runs_pass_every_check(self, clean_runs):
        report = compare(clean_runs, corrupted(clean_runs))
        assert report.ok
        assert report.first_divergence is None
        assert report.failed_checks() == []
        # Pinned contract order: state, every stats field, cycles last.
        names = [check.name for check in report.checks]
        assert names[:2] == ["registers", "memory"]
        assert sorted(names[2:]) == sorted(STAT_FIELDS)
        assert names[-1] == "cycles"

    def test_render_and_to_dict(self, clean_runs):
        report = compare(clean_runs, corrupted(clean_runs))
        assert "OK" in report.render()
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["first_divergence"] is None
        assert len(payload["checks"]) == len(report.checks)


class TestEveryInvariantFires:
    def test_register_divergence(self, clean_runs):
        bad = corrupted(clean_runs)
        bad.registers[5] ^= 1
        report = compare(clean_runs, bad)
        assert not report.ok
        assert report.first_divergence.name == "registers"
        assert "5" in report.first_divergence.detail

    def test_memory_divergence(self, clean_runs):
        bad = corrupted(clean_runs)
        addr = next(iter(bad.memory_words))
        bad.memory_words[addr] += 1
        report = compare(clean_runs, bad)
        assert report.first_divergence.name == "memory"
        assert str(addr) in report.first_divergence.detail

    def test_extra_memory_word_diverges(self, clean_runs):
        bad = corrupted(clean_runs)
        bad.memory_words[0x7FFF0] = 1
        report = compare(clean_runs, bad)
        assert report.first_divergence.name == "memory"

    @pytest.mark.parametrize("field", STAT_FIELDS)
    def test_exact_count_divergence(self, clean_runs, field):
        bad = corrupted(clean_runs)
        value = bad.stats[field]
        if isinstance(value, dict):
            bad.stats[field] = {**value, "999999": 1}
        elif isinstance(value, str):
            bad.stats[field] = value + "?"
        else:
            bad.stats[field] = value + 1
        report = compare(clean_runs, bad)
        assert not report.ok
        assert report.first_divergence.name == field

    def test_one_cycle_skew_diverges(self, clean_runs):
        bad = corrupted(clean_runs)
        bad.stats["cycles"] += 1
        report = compare(clean_runs, bad)
        assert report.failed_checks() == ["cycles"]

    def test_miss_exposure_divergence(self, clean_runs):
        # One load's exposed stall off by a cycle, every count equal.
        bad = corrupted(clean_runs)
        entry = next(iter(bad.stats["miss_exposure"].values()))
        entry[1] += 1
        report = compare(clean_runs, bad)
        assert report.failed_checks() == ["miss_exposure"]

    def test_first_divergence_respects_pinned_order(self, clean_runs):
        # State checks come before counts before cycles: a corrupted
        # register wins even when cycles are also wildly off.
        bad = corrupted(clean_runs)
        bad.stats["cycles"] = 10 * bad.stats["cycles"] + 1000
        bad.stats["instructions"] += 7
        bad.registers[3] ^= 2
        report = compare(clean_runs, bad)
        assert report.first_divergence.name == "registers"
        assert set(report.failed_checks()) == {
            "registers",
            "instructions",
            "cycles",
        }
        assert "DIVERGED at registers" in report.render()
        bad.registers[3] ^= 2
        report = compare(clean_runs, bad)
        assert report.first_divergence.name == "instructions"


class TestRunParity:
    @pytest.mark.parametrize("mode", [BASELINE, PRE_EXECUTION])
    def test_real_models_agree(self, mode):
        workload = generate(12)  # branchy
        report = run_parity(
            workload.program,
            workload.hierarchy,
            mode,
            max_instructions=60_000,
            workload=workload.name,
        )
        assert report.ok, report.render()
        assert report.mode == mode.name

    def test_parity_metrics_counted(self):
        from repro.obs import get_registry, reset_registry

        reset_registry()
        workload = generate(3)
        run_parity(
            workload.program,
            workload.hierarchy,
            BASELINE,
            max_instructions=20_000,
            workload=workload.name,
        )
        snapshot = get_registry().snapshot()
        assert snapshot["parity.comparisons"]["value"] == 1
        assert "parity.divergences" not in snapshot

    def test_parity_span_emitted(self):
        from repro.obs import get_tracer, reset_tracer

        reset_tracer()
        workload = generate(3)
        run_parity(
            workload.program,
            workload.hierarchy,
            BASELINE,
            max_instructions=20_000,
            workload=workload.name,
        )
        parity_span = get_tracer().root.find("parity")
        assert parity_span is not None
        # Both simulators ran inside the parity span.
        assert parity_span.find("eventsim") is not None
