"""Shared infrastructure for the synthetic workload suite.

The paper evaluates on SPEC2000int.  Those binaries and inputs are not
reproducible here (see DESIGN.md §2); instead each workload in this
package is a small kernel hand-written to exhibit the *memory behaviour
class* of one benchmark/input pair — pointer chasing, hash probing,
multi-level indirection, computed indices, and so on — against caches
scaled down in proportion.

Every workload module exposes::

    INPUTS: Dict[str, Dict[str, Any]]   # 'train' and 'test' at minimum
    build(**params) -> Program          # deterministic given a seed

and registers itself in :mod:`repro.workloads.suite`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List

from repro.isa.program import DataImage
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig

#: Cache hierarchy used by the workload suite: the paper's geometry
#: scaled down 4-8x in capacity (4KB L1 / 32KB L2) so the kernels'
#: scaled working sets land in the same miss regimes SPEC2000 did
#: against 16KB/256KB.  Line sizes, associativities and latencies are
#: the paper's.
SUITE_HIERARCHY = HierarchyConfig(
    l1=CacheConfig(name="L1D", size_bytes=4 * 1024, line_bytes=32, assoc=2, hit_latency=2),
    l2=CacheConfig(name="L2", size_bytes=32 * 1024, line_bytes=64, assoc=4, hit_latency=6),
    mem_latency=70,
    mshr_entries=32,
)

#: Base addresses for workload data regions, spaced far apart so
#: regions never collide regardless of size parameters.
MB = 1 << 20
REGION_BASES = [i * 16 * MB + 4096 for i in range(1, 17)]


@dataclass
class DataBuilder:
    """Helper for laying out workload data structures.

    Wraps a :class:`DataImage` with region allocation and deterministic
    random fills.
    """

    seed: int
    image: DataImage = field(default_factory=DataImage)
    _next_region: int = 0

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def region(self, name: str, num_words: int) -> int:
        """Allocate the next region base and record it; returns base."""
        if self._next_region >= len(REGION_BASES):
            raise ValueError("too many data regions")
        base = REGION_BASES[self._next_region]
        self._next_region += 1
        self.image.add_region(name, base, num_words)
        return base

    def words(self, name: str, values: Iterable[int]) -> int:
        """Allocate a region and fill it with ``values``; returns base."""
        values = list(values)
        base = self.region(name, len(values))
        self.image.store_words(base, values)
        return base

    def random_words(self, name: str, count: int, lo: int, hi: int) -> int:
        """Region of ``count`` uniform random words in ``[lo, hi]``."""
        rand = self.rng.randint
        return self.words(name, (rand(lo, hi) for _ in range(count)))


def mixed_indices(
    rng: random.Random,
    count: int,
    table_size: int,
    hot_size: int,
    hot_fraction: float,
) -> List[int]:
    """Indices drawn from a hot set with probability ``hot_fraction``.

    The hot set (first ``hot_size`` entries) stays cache-resident, so
    ``hot_fraction`` directly controls the kernel's hit/miss mix — the
    knob used to place each workload in its benchmark's miss regime.
    """
    out = []
    for _ in range(count):
        if rng.random() < hot_fraction:
            out.append(rng.randrange(hot_size))
        else:
            out.append(rng.randrange(hot_size, table_size))
    return out
