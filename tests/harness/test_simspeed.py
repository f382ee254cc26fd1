"""Unit tests for the timing-engine speed benchmark.

Covers the pieces the CI smoke never isolates: the paired timing
(alternation, untimed warm-up, with a deterministic fake clock), the
best-round MIPS and per-pair ratios, the ``--check`` floor on passing and
failing payloads, and the ``BENCH_simspeed.json`` schema the results
file promises.
"""

import json
import statistics

import pytest

from repro.cli import main
from repro.engine.compiler import ENGINE_INTERP, ENGINE_TIERED
from repro.harness import simspeed


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


def _runs(calls, instructions=5_000_000):
    """One fake ``run`` per engine, logging the order they are called."""

    def make(engine):
        def run():
            calls.append(engine)
            return instructions

        return run

    return {engine: make(engine) for engine in simspeed.ENGINES}


class TestSteadyMips:
    def test_rounds_alternate_engines(self, monkeypatch):
        # Each timed run consumes two clock reads (start, end); the
        # reads between runs advance by 0 so only the timed window
        # counts.  Round 1: interp 2s, tiered 1s; round 2: 4s, 2s.
        deltas = [2.0, 0.0, 1.0, 0.0, 4.0, 0.0, 2.0, 0.0]
        monkeypatch.setattr(simspeed.time, "perf_counter", FakeClock(deltas))
        calls = []
        seconds, instructions = simspeed._paired_seconds(
            _runs(calls), repeats=2
        )
        # One untimed warm-up per engine, then the pairs back to back.
        assert calls == [ENGINE_INTERP, ENGINE_TIERED] * 3
        assert seconds == {ENGINE_INTERP: [2.0, 4.0], ENGINE_TIERED: [1.0, 2.0]}
        assert instructions == 5_000_000

    def test_best_of_repeats(self):
        # Rounds of 2s, 1s, 4s -> the best is 1s, for each engine.
        seconds = {ENGINE_INTERP: [2.0, 1.0, 4.0], ENGINE_TIERED: [4.0, 1.0, 2.0]}
        mips, _ratios = simspeed._summarize(seconds, 5_000_000)
        assert mips[ENGINE_INTERP] == pytest.approx(5.0)  # 5e6 / 1s / 1e6
        assert mips[ENGINE_TIERED] == pytest.approx(5.0)

    def test_pair_ratios(self):
        # Each ratio is one round's interp seconds over its tiered
        # seconds, never one engine's best over the other's.
        seconds = {ENGINE_INTERP: [2.0, 1.0, 4.0], ENGINE_TIERED: [1.0, 2.0, 2.0]}
        _mips, ratios = simspeed._summarize(seconds, 4_000_000)
        assert ratios == pytest.approx([2.0, 0.5, 2.0])

    def test_zero_instructions_is_zero(self):
        seconds = {ENGINE_INTERP: [1.0], ENGINE_TIERED: [1.0]}
        mips, _ratios = simspeed._summarize(seconds, 0)
        assert mips == {ENGINE_INTERP: 0.0, ENGINE_TIERED: 0.0}

    def test_warmup_not_timed(self, monkeypatch):
        # The warm-up calls happen before the clock is first read, so a
        # slow first call per engine cannot reach the result.
        clock = FakeClock([3.0, 0.0, 1.0, 0.0])
        monkeypatch.setattr(simspeed.time, "perf_counter", clock)
        reads = []

        def run():
            reads.append(clock.now)
            return 3_000_000

        seconds, _ = simspeed._paired_seconds(
            {engine: run for engine in simspeed.ENGINES}, repeats=1
        )
        assert reads[:2] == [0.0, 0.0]
        assert seconds == {ENGINE_INTERP: [3.0], ENGINE_TIERED: [1.0]}


def _payload(ratio=1.2):
    """A payload whose median per-pair tiered ratio is ``ratio``."""
    return {
        "workloads": ["mcf"],
        "timing_baseline": {
            ENGINE_INTERP: {"mcf": 1.0},
            ENGINE_TIERED: {"mcf": ratio},
        },
        "timing_baseline_geomean": {ENGINE_INTERP: 1.0, ENGINE_TIERED: ratio},
        "timing_baseline_pairs": {"mcf": [ratio]},
        "tiered_median_pair_ratio": ratio,
    }


class TestCheckPayload:
    def test_passes_on_healthy_payload(self):
        assert simspeed.check_payload(_payload()) == []
        assert simspeed.check_payload(_payload(ratio=1.0)) == []

    def test_fails_when_tiered_slower_anywhere(self):
        problems = simspeed.check_payload(_payload(ratio=0.9))
        assert problems == [
            "timing baseline: tiered slower than interpreter "
            "(median pair ratio 0.90x < 1.0x)"
        ]


class TestPayloadSchema:
    """The BENCH_simspeed.json schema downstream tooling reads."""

    @pytest.fixture(scope="class")
    def payload(self):
        return simspeed.bench_speed(
            workloads=["pharmacy"], repeats=2, max_instructions=2_000
        )

    def test_top_level_keys(self, payload):
        assert set(payload) == {
            "workloads",
            "repeats",
            "max_instructions",
            "unit",
            "timing_baseline",
            "timing_baseline_geomean",
            "timing_baseline_pairs",
            "tiered_median_pair_ratio",
        }
        assert payload["workloads"] == ["pharmacy"]
        assert payload["repeats"] == 2

    def test_timing_cells_and_pairs(self, payload):
        assert set(payload["timing_baseline"]) == set(simspeed.ENGINES)
        for cells in payload["timing_baseline"].values():
            assert set(cells) == {"pharmacy"}
            assert cells["pharmacy"] > 0.0
        pairs = payload["timing_baseline_pairs"]["pharmacy"]
        assert len(pairs) == 2
        assert payload["tiered_median_pair_ratio"] == statistics.median(pairs)

    def test_geomean_summaries(self, payload):
        summary = payload["timing_baseline_geomean"]
        assert set(summary) == set(simspeed.ENGINES)
        for engine in simspeed.ENGINES:
            assert summary[engine] == pytest.approx(
                payload["timing_baseline"][engine]["pharmacy"]
            )

    def test_render_mentions_every_config(self, payload):
        text = simspeed.render(payload)
        assert "pharmacy" in text
        assert "timing/baseline" in text
        assert "median pair ratio" in text

    def test_write_results_round_trips(self, payload, tmp_path):
        out = tmp_path / "results" / "BENCH_simspeed.json"
        simspeed.write_results(payload, out)
        assert json.loads(out.read_text()) == payload


class TestRepeats:
    def test_below_one_raises(self):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            simspeed.bench_speed(workloads=["pharmacy"], repeats=0)

    def test_cli_exits_with_an_error(self, capsys):
        # Zero pairs would print 0.00 MIPS for both engines, and
        # --check would blame the tiered engine.
        with pytest.raises(SystemExit, match="error: repeats must be >= 1"):
            main(["bench", "speed", "--workloads", "pharmacy",
                  "--repeats", "0", "--check"])
        assert "MIPS" not in capsys.readouterr().out
