"""Test-only reference: the original hybrid predictor.

This is the formulation of
:class:`repro.frontend.branch_predictor.HybridPredictor` from before its
counter updates were inlined: each table is a :class:`_CounterTable`
with its own ``predict`` / ``update`` methods, so one conditional branch
costs six table calls plus the BTB helpers.  It exists only so the
tests can check the library predictor against it.
"""

from __future__ import annotations

from typing import List


class _CounterTable:
    """A table of 2-bit saturating counters."""

    def __init__(self, index_bits: int, initial: int = 1) -> None:
        self.mask = (1 << index_bits) - 1
        self.counters: List[int] = [initial] * (1 << index_bits)

    def predict(self, index: int) -> bool:
        return self.counters[index & self.mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        i = index & self.mask
        value = self.counters[i]
        if taken:
            if value < 3:
                self.counters[i] = value + 1
        elif value > 0:
            self.counters[i] = value - 1


class ReferenceHybridPredictor:
    """Bimodal + gshare with a chooser, plus a direct-mapped BTB."""

    def __init__(
        self,
        bimodal_bits: int = 11,
        gshare_bits: int = 11,
        chooser_bits: int = 11,
        btb_bits: int = 11,
    ) -> None:
        self.bimodal = _CounterTable(bimodal_bits)
        self.gshare = _CounterTable(gshare_bits)
        self.chooser = _CounterTable(chooser_bits, initial=2)
        self.history = 0
        self.history_mask = (1 << gshare_bits) - 1
        self.btb_mask = (1 << btb_bits) - 1
        self.btb: List[int] = [-1] * (1 << btb_bits)
        self.btb_targets: List[int] = [0] * (1 << btb_bits)
        self.branches = 0
        self.mispredictions = 0
        self.btb_misses = 0

    def predict_and_update(self, pc: int, taken: bool, target: int) -> bool:
        self.branches += 1
        gshare_index = pc ^ self.history
        use_gshare = self.chooser.predict(pc)
        bimodal_pred = self.bimodal.predict(pc)
        gshare_pred = self.gshare.predict(gshare_index)
        prediction = gshare_pred if use_gshare else bimodal_pred

        correct = prediction == taken
        if correct and taken:
            correct = self._btb_lookup(pc, target)
        if not correct:
            self.mispredictions += 1

        if bimodal_pred != gshare_pred:
            self.chooser.update(pc, gshare_pred == taken)
        self.bimodal.update(pc, taken)
        self.gshare.update(gshare_index, taken)
        self.history = ((self.history << 1) | int(taken)) & self.history_mask
        if taken:
            self._btb_install(pc, target)
        return correct

    def predict_indirect(self, pc: int, target: int) -> bool:
        self.branches += 1
        correct = self._btb_lookup(pc, target)
        if not correct:
            self.mispredictions += 1
        self._btb_install(pc, target)
        return correct

    def _btb_lookup(self, pc: int, target: int) -> bool:
        i = pc & self.btb_mask
        if self.btb[i] != pc or self.btb_targets[i] != target:
            self.btb_misses += 1
            return False
        return True

    def _btb_install(self, pc: int, target: int) -> None:
        i = pc & self.btb_mask
        self.btb[i] = pc
        self.btb_targets[i] = target
