"""Tests for the hybrid branch predictor and BTB."""

from repro.frontend.branch_predictor import HybridPredictor
from tests.frontend.reference_predictor import _CounterTable


class TestCounterTable:
    """The reference counter table; the library predictor inlines it."""

    def test_saturates_high(self):
        table = _CounterTable(4)
        for _ in range(10):
            table.update(0, True)
        assert table.counters[0] == 3
        assert table.predict(0)

    def test_saturates_low(self):
        table = _CounterTable(4)
        for _ in range(10):
            table.update(0, False)
        assert table.counters[0] == 0
        assert not table.predict(0)

    def test_index_masking(self):
        table = _CounterTable(2)  # 4 entries
        table.update(5, True)
        table.update(5, True)
        assert table.predict(1)  # 5 & 3 == 1


class TestHybridPredictor:
    def test_learns_always_taken(self):
        predictor = HybridPredictor()
        for _ in range(20):
            predictor.predict_and_update(pc=10, taken=True, target=3)
        before = predictor.mispredictions
        for _ in range(50):
            predictor.predict_and_update(pc=10, taken=True, target=3)
        assert predictor.mispredictions == before

    def test_learns_never_taken(self):
        predictor = HybridPredictor()
        for _ in range(20):
            predictor.predict_and_update(pc=10, taken=False, target=3)
        before = predictor.mispredictions
        for _ in range(50):
            predictor.predict_and_update(pc=10, taken=False, target=3)
        assert predictor.mispredictions == before

    def test_gshare_learns_alternating_pattern(self):
        predictor = HybridPredictor()
        outcomes = [True, False] * 200
        for taken in outcomes:
            predictor.predict_and_update(pc=10, taken=taken, target=3)
        # Re-run the pattern: the history-indexed component should nail it.
        before = predictor.mispredictions
        for taken in [True, False] * 50:
            predictor.predict_and_update(pc=10, taken=taken, target=3)
        assert predictor.mispredictions - before <= 5

    def test_random_pattern_mispredicts_often(self):
        import random

        rng = random.Random(1)
        predictor = HybridPredictor()
        n = 2000
        for _ in range(n):
            predictor.predict_and_update(pc=10, taken=rng.random() < 0.5, target=3)
        assert predictor.misprediction_rate() > 0.3

    def test_btb_miss_counts_as_misprediction(self):
        predictor = HybridPredictor()
        # Train direction as taken; first taken prediction has no BTB entry.
        predictor.predict_and_update(pc=10, taken=True, target=3)
        assert predictor.mispredictions >= 1

    def test_btb_target_change_detected(self):
        predictor = HybridPredictor()
        for _ in range(10):
            predictor.predict_and_update(pc=10, taken=True, target=3)
        before = predictor.mispredictions
        predictor.predict_and_update(pc=10, taken=True, target=99)
        assert predictor.mispredictions == before + 1

    def test_indirect_prediction(self):
        predictor = HybridPredictor()
        assert not predictor.predict_indirect(pc=4, target=7)  # cold
        assert predictor.predict_indirect(pc=4, target=7)  # learned
        assert not predictor.predict_indirect(pc=4, target=9)  # changed

    def test_rate_zero_without_branches(self):
        assert HybridPredictor().misprediction_rate() == 0.0
