"""Unit tests for the simulation-speed benchmark harness.

Covers the three pieces the CI smoke never isolates: the steady-state
MIPS computation (with a deterministic fake clock), the ``--check``
floor enforcement on both passing and failing payloads, and the
``BENCH_simspeed.json`` schema the results file promises.
"""

import json

import pytest

from repro.engine.compiler import ENGINE_INTERP, ENGINE_TIERED
from repro.harness import simspeed
from repro.obs import Span


class FakeClock:
    """perf_counter stand-in advancing by scripted deltas per call."""

    def __init__(self, deltas):
        self.now = 0.0
        self.deltas = list(deltas)

    def __call__(self):
        value = self.now
        if self.deltas:
            self.now += self.deltas.pop(0)
        return value


class TestSteadyMips:
    def test_best_of_repeats(self, monkeypatch):
        # Three timed runs taking 2s, 1s, 4s -> best is 1s.  Each run
        # consumes two clock reads (start, end); interleaving reads
        # advance by 0 so only the timed window counts.
        deltas = [2.0, 0.0, 1.0, 0.0, 4.0, 0.0]
        monkeypatch.setattr(simspeed.time, "perf_counter", FakeClock(deltas))
        calls = []

        def run():
            calls.append(None)
            return 5_000_000

        mips = simspeed._steady_mips(run, repeats=3)
        assert mips == pytest.approx(5.0)  # 5e6 instructions / 1s / 1e6
        assert len(calls) == 4  # 1 untimed warm-up + 3 timed

    def test_zero_instructions_is_zero(self, monkeypatch):
        monkeypatch.setattr(
            simspeed.time, "perf_counter", FakeClock([1.0, 0.0])
        )
        assert simspeed._steady_mips(lambda: 0, repeats=1) == 0.0

    def test_warmup_not_timed(self, monkeypatch):
        # A slow first (warm-up) call must not affect the result.
        clock = FakeClock([3.0, 0.0])
        monkeypatch.setattr(simspeed.time, "perf_counter", clock)
        first = []

        def run():
            if not first:
                first.append(None)  # warm-up: clock not read around it
            return 3_000_000

        assert simspeed._steady_mips(run, repeats=1) == pytest.approx(1.0)


def _span(name, duration, *children, **meta):
    span = {"name": name, "duration": duration}
    if meta:
        span["meta"] = meta
    if children:
        span["children"] = list(children)
    return span


#: One validated Table 2 cell as the harness traces it: three timing
#: simulations under ``validation``, the perfect-L2 run in its own
#: span, and analysis spans that are not simulation.
VALIDATED_CELL = _span(
    "experiment",
    20.0,
    _span("trace", 1.0),
    _span("baseline", 0.5),
    _span(
        "selection",
        9.0,
        _span("slice+select", 8.5, _span("slice_trees", 5.0)),
    ),
    _span("timing", 2.0, _span("tier_up", 0.25)),
    _span(
        "validation",
        6.0,
        _span("overhead_execute", 2.0),
        _span("overhead_sequence", 1.5),
        _span("latency_only", 2.5),
    ),
    _span("perfect_l2", 0.75, _span("tier_up", 0.125)),
    workload="bzip2",
)


def sim_seconds(span):
    seconds = Span.from_dict(span).seconds_by_name(simspeed.SIM_STAGES)
    return sum(seconds.values())


class TestSimStageAccounting:
    def test_validated_cell_counts_every_timing_simulation(self):
        # trace + baseline + timing + validation + perfect_l2; nothing
        # under selection, and no child counted twice.
        sim = sim_seconds(VALIDATED_CELL)
        assert sim == pytest.approx(1.0 + 0.5 + 2.0 + 6.0 + 0.75)

    def test_sweep_sums_cells(self):
        sweep = _span("sweep", 45.0, VALIDATED_CELL, VALIDATED_CELL)
        assert sim_seconds(sweep) == pytest.approx(2 * 10.25)


def _payload(
    exec_ratio=3.0,
    cached_ratio=1.5,
    timing_ratio=1.2,
    table2_tiered=1.6,
):
    """A payload whose tiered engine runs ``*_ratio`` x the interpreter."""

    def summary(ratio):
        return {
            ENGINE_INTERP: 1.0,
            ENGINE_TIERED: ratio,
            "tiered_ratio": ratio,
        }

    return {
        "functional_geomean": {
            "exec": summary(exec_ratio),
            "cached": summary(cached_ratio),
            "traced": summary(cached_ratio),
        },
        "timing_baseline_geomean": summary(timing_ratio),
        "table2_cold": {
            "seconds": {
                ENGINE_INTERP: 10.0,
                ENGINE_TIERED: 10.0 / table2_tiered,
            },
            "sim_seconds": {
                ENGINE_INTERP: 3.0,
                ENGINE_TIERED: 3.0 / table2_tiered,
            },
            "tiered_speedup": table2_tiered,
            "tiered_sim_speedup": table2_tiered,
        },
    }


class TestCheckPayload:
    def test_passes_on_healthy_payload(self):
        assert simspeed.check_payload(_payload()) == []

    def test_fails_below_exec_floor(self):
        problems = simspeed.check_payload(_payload(exec_ratio=1.9))
        assert len(problems) == 1
        assert "exec speedup 1.90x < 2.0x" in problems[0]

    def test_fails_when_tiered_slower_anywhere(self):
        problems = simspeed.check_payload(
            _payload(exec_ratio=0.9, cached_ratio=0.9, timing_ratio=0.9)
        )
        # exec + cached + traced + timing are slower, and the exec 2x
        # and traced 1.5x floors fire too.
        assert len(problems) == 6
        slower = [p for p in problems if "tiered slower" in p]
        assert len(slower) == 4
        assert any("timing baseline" in p for p in slower)

    def test_fails_when_tiered_loses_cold_table2(self):
        problems = simspeed.check_payload(_payload(table2_tiered=0.9))
        assert len(problems) == 1
        assert (
            "table2 cold: tiered slower than interpreter end to end "
            "(0.90x)" in problems[0]
        )

    def test_table2_floor_skipped_when_absent(self):
        payload = _payload(table2_tiered=0.9)
        del payload["table2_cold"]
        assert simspeed.check_payload(payload) == []

    def test_exec_floor_and_slower_both_reported(self):
        problems = simspeed.check_payload(
            _payload(exec_ratio=0.5, cached_ratio=2.0)
        )
        assert any("< 2.0x" in p for p in problems)
        assert any("exec: tiered slower" in p for p in problems)


class TestPayloadSchema:
    """The BENCH_simspeed.json schema downstream tooling reads."""

    @pytest.fixture(scope="class")
    def payload(self):
        return simspeed.bench_speed(
            workloads=["pharmacy"],
            repeats=1,
            max_instructions=2_000,
            table2=False,
        )

    def test_top_level_keys(self, payload):
        assert set(payload) == {
            "workloads",
            "repeats",
            "max_instructions",
            "unit",
            "functional",
            "functional_geomean",
            "timing_baseline",
            "timing_baseline_geomean",
        }
        assert payload["workloads"] == ["pharmacy"]
        assert payload["repeats"] == 1

    def test_functional_cells(self, payload):
        assert set(payload["functional"]) == set(simspeed.FUNCTIONAL_CONFIGS)
        for config in simspeed.FUNCTIONAL_CONFIGS:
            cells = payload["functional"][config]
            assert set(cells) == set(simspeed.ENGINES)
            for engine in cells:
                assert set(cells[engine]) == {"pharmacy"}
                assert cells[engine]["pharmacy"] >= 0.0

    def test_geomean_summaries(self, payload):
        expected = {ENGINE_INTERP, ENGINE_TIERED, "tiered_ratio"}
        for config, summary in payload["functional_geomean"].items():
            assert set(summary) == expected
        assert set(payload["timing_baseline_geomean"]) == expected

    def test_table2_key_only_when_requested(self, payload):
        assert "table2_cold" not in payload

    def test_render_mentions_every_config(self, payload):
        text = simspeed.render(payload)
        for config in simspeed.FUNCTIONAL_CONFIGS:
            assert f"functional/{config}" in text
        assert "timing/baseline" in text

    def test_write_results_round_trips(self, payload, tmp_path):
        out = tmp_path / "results" / "BENCH_simspeed.json"
        simspeed.write_results(payload, out)
        assert json.loads(out.read_text()) == payload
