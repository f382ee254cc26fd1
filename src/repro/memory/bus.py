"""Bus occupancy model.

The paper's memory system has a 32-byte backside (L2) bus clocked at
processor frequency and a 32-byte memory bus clocked at one quarter
processor frequency.  Bus contention matters: the paper identifies
memory-bus contention as the main source of full-coverage
over-estimation.

The model is slot-based rather than a single ``next_free`` cursor
because requests do not arrive in timestamp order — the simulator
processes a p-thread's whole body (with future timestamps) when it
launches, then returns to earlier main-thread accesses.  Time is
divided into slots one transfer long; each slot carries at most one
transfer, and a request takes the first free slot at or after its
arrival.  This preserves the bus's true throughput limit and resolves
contention locally without ordering assumptions.
"""

from __future__ import annotations

from typing import Dict, Set


class Bus:
    """A serializing transfer resource with slot-based arbitration.

    Args:
        name: label used in statistics.
        width_bytes: bytes transferred per bus clock.
        cycles_per_beat: processor cycles per bus clock (4 for the
            paper's memory bus, 1 for the backside bus).
    """

    def __init__(self, name: str, width_bytes: int, cycles_per_beat: int = 1) -> None:
        if width_bytes < 1 or cycles_per_beat < 1:
            raise ValueError("bus width and clock divisor must be >= 1")
        self.name = name
        self.width_bytes = width_bytes
        self.cycles_per_beat = cycles_per_beat
        # Occupied slot indices, per transfer duration (transfers on one
        # bus are near-homogeneous — line fills — so this rarely holds
        # more than one duration).
        self._slots: Dict[int, Set[int]] = {}
        # statistics
        self.transfers = 0
        self.busy_cycles = 0
        self.wait_cycles = 0

    def transfer_cycles(self, num_bytes: int) -> int:
        """Occupancy in processor cycles for ``num_bytes``."""
        beats = -(-num_bytes // self.width_bytes)  # ceil division
        return beats * self.cycles_per_beat

    def request(self, now: int, num_bytes: int) -> int:
        """Schedule a transfer requested at ``now``.

        Returns the cycle at which the transfer completes.  The request
        occupies the first free slot at or after ``now``; requests may
        arrive in any timestamp order.
        """
        # transfer_cycles, inlined: the hierarchy requests a bus on
        # every L2 hit and every line fetched from memory.
        duration = -(-num_bytes // self.width_bytes) * self.cycles_per_beat
        slots = self._slots.get(duration)
        if slots is None:
            slots = self._slots[duration] = set()
        index = (now if now > 0 else 0) // duration
        while index in slots:
            index += 1
        slots.add(index)
        start = index * duration
        if start < now:
            start = now
        self.transfers += 1
        self.busy_cycles += duration
        self.wait_cycles += start - now
        return start + duration

    def reset(self) -> None:
        self._slots.clear()
        self.transfers = 0
        self.busy_cycles = 0
        self.wait_cycles = 0
