"""Timing-simulation statistics.

:class:`SimStats` is the measured half of the paper's Table 2: IPC,
p-thread launch counts and lengths, and L2-miss coverage classified by
the cache-block timestamping scheme (fully covered / partially covered
/ evicted-before-use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimStats:
    """Counters produced by one timing-simulation run."""

    mode: str = "baseline"
    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredictions: int = 0
    #: Mispredictions whose redirect penalty a branch p-thread's early
    #: outcome hint suppressed (branch pre-execution).
    mispredicts_covered: int = 0
    # Main-thread memory behaviour.  ``l2_misses`` counts accesses the
    # *unassisted* program would have missed — i.e. covered misses are
    # still counted, then classified below.
    l1_misses: int = 0
    l2_misses: int = 0
    misses_fully_covered: int = 0
    misses_partially_covered: int = 0
    partial_covered_cycles: int = 0
    prefetches_evicted: int = 0
    prefetches_unclaimed: int = 0
    # P-thread activity.
    pthread_launches: int = 0
    pthread_drops: int = 0
    pthread_instructions: int = 0
    pthread_l2_misses: int = 0
    #: Per trigger PC: *actual* launches (a context was free).  Dropped
    #: attempts are tallied separately in :attr:`drops_by_trigger`; the
    #: per-trigger attempt count is the sum of the two.
    launches_by_trigger: Dict[int, int] = field(default_factory=dict)
    drops_by_trigger: Dict[int, int] = field(default_factory=dict)
    #: Per static load PC: [miss count, exposed stall cycles]: how far
    #: each miss's completion reached past the in-order retirement
    #: frontier.  The planned per-p-thread prediction-vs-measurement
    #: ledger reads it (a load's baseline exposure minus its
    #: pre-execution exposure is the latency its p-threads tolerated);
    #: until then only the parity contract does.
    miss_exposure: Dict[int, list] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

    @property
    def misses_covered(self) -> int:
        """Misses covered at all (fully or partially)."""
        return self.misses_fully_covered + self.misses_partially_covered

    @property
    def coverage_fraction(self) -> float:
        if not self.l2_misses:
            return 0.0
        return self.misses_covered / self.l2_misses

    @property
    def full_coverage_fraction(self) -> float:
        if not self.l2_misses:
            return 0.0
        return self.misses_fully_covered / self.l2_misses

    @property
    def avg_pthread_length(self) -> float:
        if not self.pthread_launches:
            return 0.0
        return self.pthread_instructions / self.pthread_launches

    @property
    def instruction_overhead(self) -> float:
        """P-thread instructions per retired main-thread instruction."""
        if not self.instructions:
            return 0.0
        return self.pthread_instructions / self.instructions

    @property
    def misprediction_rate(self) -> float:
        if not self.branches:
            return 0.0
        return self.mispredictions / self.branches

    def speedup_over(self, baseline: "SimStats") -> float:
        """Fractional IPC improvement over a baseline run.

        An empty baseline (nothing simulated at all) legitimately has
        no speedup and returns ``0.0``.  A baseline that *ran* but
        retired no instructions — or burned no cycles while claiming to
        retire some — has a broken IPC; treating it as "no speedup"
        would silently mask the breakage, so it raises instead.
        """
        if not baseline.cycles and not baseline.instructions:
            return 0.0
        if baseline.ipc <= 0:
            raise ValueError(
                f"broken baseline [{baseline.mode}]: "
                f"{baseline.instructions} instructions in "
                f"{baseline.cycles} cycles gives non-positive IPC"
            )
        return self.ipc / baseline.ipc - 1.0

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dict (see :meth:`from_dict`)."""
        return {
            "mode": self.mode,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "mispredictions": self.mispredictions,
            "mispredicts_covered": self.mispredicts_covered,
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "misses_fully_covered": self.misses_fully_covered,
            "misses_partially_covered": self.misses_partially_covered,
            "partial_covered_cycles": self.partial_covered_cycles,
            "prefetches_evicted": self.prefetches_evicted,
            "prefetches_unclaimed": self.prefetches_unclaimed,
            "pthread_launches": self.pthread_launches,
            "pthread_drops": self.pthread_drops,
            "pthread_instructions": self.pthread_instructions,
            "pthread_l2_misses": self.pthread_l2_misses,
            "launches_by_trigger": {
                str(pc): count
                for pc, count in sorted(self.launches_by_trigger.items())
            },
            "drops_by_trigger": {
                str(pc): count
                for pc, count in sorted(self.drops_by_trigger.items())
            },
            "miss_exposure": {
                str(pc): list(entry)
                for pc, entry in sorted(self.miss_exposure.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Rebuild from :meth:`to_dict` output."""
        fields_ = dict(data)
        launches = fields_.pop("launches_by_trigger", {})
        drops = fields_.pop("drops_by_trigger", {})
        exposure = fields_.pop("miss_exposure", {})
        stats = cls(**fields_)
        stats.launches_by_trigger = {
            int(pc): int(count) for pc, count in launches.items()
        }
        stats.drops_by_trigger = {
            int(pc): int(count) for pc, count in drops.items()
        }
        stats.miss_exposure = {
            int(pc): list(entry) for pc, entry in exposure.items()
        }
        return stats

    def describe(self) -> str:
        return (
            f"[{self.mode}] cycles={self.cycles} insns={self.instructions} "
            f"IPC={self.ipc:.3f} l2m={self.l2_misses} "
            f"covered={self.misses_covered} (full {self.misses_fully_covered}) "
            f"launches={self.pthread_launches} (dropped {self.pthread_drops}) "
            f"pt-insns={self.pthread_instructions}"
        )
