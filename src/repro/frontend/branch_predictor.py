"""Hybrid branch predictor (bimodal + gshare with a chooser) and BTB.

Models the paper's front end: a 6K-entry hybrid predictor with a
2K-entry BTB.  The timing simulator is trace-driven on the correct
path, so the predictor's job is to decide, per dynamic branch, whether
the fetch stream would have been redirected (a misprediction) — the
penalty is applied by the timing core.

The default sizes give 2K entries to each of the three tables
(bimodal, gshare, chooser), i.e. the paper's "6K-entry hybrid".
"""

from __future__ import annotations

from typing import List


#: 2-bit saturating counter transitions, indexed by the current value.
_UP = (1, 2, 3, 3)
_DOWN = (0, 0, 1, 2)


class _CounterTable:
    """A table of 2-bit saturating counters, indexed modulo its size.

    :meth:`HybridPredictor.predict_and_update` reads and updates the
    counters in its own body: a predict and an update method per table
    cost six calls per branch.
    """

    __slots__ = ("mask", "counters")

    def __init__(self, index_bits: int, initial: int = 1) -> None:
        self.mask = (1 << index_bits) - 1
        self.counters: List[int] = [initial] * (1 << index_bits)


class HybridPredictor:
    """Bimodal + gshare with a chooser, plus a direct-mapped BTB.

    Args:
        bimodal_bits: log2 entries in the bimodal table.
        gshare_bits: log2 entries in the gshare table (and history bits).
        chooser_bits: log2 entries in the chooser table.
        btb_bits: log2 entries in the BTB.
    """

    def __init__(
        self,
        bimodal_bits: int = 11,
        gshare_bits: int = 11,
        chooser_bits: int = 11,
        btb_bits: int = 11,
    ) -> None:
        self.bimodal = _CounterTable(bimodal_bits)
        self.gshare = _CounterTable(gshare_bits)
        # Chooser counter >= 2 means "use gshare".
        self.chooser = _CounterTable(chooser_bits, initial=2)
        self.history = 0
        self.history_mask = (1 << gshare_bits) - 1
        self.btb_mask = (1 << btb_bits) - 1
        self.btb: List[int] = [-1] * (1 << btb_bits)
        self.btb_targets: List[int] = [0] * (1 << btb_bits)
        # statistics
        self.branches = 0
        self.mispredictions = 0
        self.btb_misses = 0

    def predict_and_update(self, pc: int, taken: bool, target: int) -> bool:
        """Run one conditional branch through the predictor.

        Args:
            pc: static PC of the branch.
            taken: actual outcome.
            target: actual taken target PC.

        Returns:
            True if the prediction (direction and, when taken, target)
            was correct.
        """
        self.branches += 1
        bimodal = self.bimodal.counters
        gshare = self.gshare.counters
        chooser = self.chooser.counters
        bimodal_index = pc & self.bimodal.mask
        gshare_index = (pc ^ self.history) & self.gshare.mask
        chooser_index = pc & self.chooser.mask
        bimodal_pred = bimodal[bimodal_index] >= 2
        gshare_pred = gshare[gshare_index] >= 2
        prediction = gshare_pred if chooser[chooser_index] >= 2 else bimodal_pred

        correct = prediction == taken
        btb_index = pc & self.btb_mask
        if correct and taken:
            if self.btb[btb_index] != pc or self.btb_targets[btb_index] != target:
                self.btb_misses += 1
                correct = False
        if not correct:
            self.mispredictions += 1

        # Update chooser toward whichever component was right (only when
        # they disagree, per the standard tournament scheme).
        if bimodal_pred != gshare_pred:
            toward = _UP if gshare_pred == taken else _DOWN
            chooser[chooser_index] = toward[chooser[chooser_index]]
        step = _UP if taken else _DOWN
        bimodal[bimodal_index] = step[bimodal[bimodal_index]]
        gshare[gshare_index] = step[gshare[gshare_index]]
        self.history = ((self.history << 1) | int(taken)) & self.history_mask
        if taken:
            self.btb[btb_index] = pc
            self.btb_targets[btb_index] = target
        return correct

    def predict_indirect(self, pc: int, target: int) -> bool:
        """Run an indirect jump (``jr``) through the BTB only."""
        self.branches += 1
        i = pc & self.btb_mask
        correct = self.btb[i] == pc and self.btb_targets[i] == target
        if not correct:
            self.btb_misses += 1
            self.mispredictions += 1
        self.btb[i] = pc
        self.btb_targets[i] = target
        return correct

    def misprediction_rate(self) -> float:
        """Mispredictions per dynamic branch."""
        if not self.branches:
            return 0.0
        return self.mispredictions / self.branches
