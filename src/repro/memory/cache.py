"""Set-associative cache state with LRU replacement.

:class:`Cache` models tag state only — data values always come from the
functional :class:`~repro.memory.main_memory.MainMemory`.  This is
exactly the modelling level the paper's tools need: the functional cache
simulator classifies each access as an L1 hit / L2 hit / L2 miss, and
the timing simulator attaches latencies to those outcomes.

Replacement is true LRU within a set.  The cache is write-back
write-allocate; dirty state is tracked so writeback traffic can be
charged to the bus model.

The tag store is two flat parallel lists (``_tags`` / ``_dirty``) of
``num_sets * assoc`` slots: set ``s`` occupies ``[s*assoc, (s+1)*assoc)``
with the MRU way first and empty slots (``None`` tags) packed at the
tail.  Both simulators hit this structure once or twice per simulated
instruction, so there is deliberately no per-line object — earlier
revisions allocated a ``_Line`` dataclass per resident line and the
allocator dominated the access path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of one cache level.

    Attributes:
        name: label used in statistics ("L1D", "L2").
        size_bytes: total capacity.
        line_bytes: line (block) size.
        assoc: associativity (ways per set).
        hit_latency: access latency in cycles on a hit.
    """

    name: str
    size_bytes: int
    line_bytes: int
    assoc: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*assoc {self.line_bytes * self.assoc}"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"{self.name}: line size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


class Cache:
    """Tag-state cache with LRU replacement.

    Per-set state lives in flat parallel lists; lookups scan at most
    ``assoc`` slots (via C-speed list containment on a transient
    ``assoc``-long slice) and hits shift the matching way to the MRU
    position with a slice move, so the access path allocates no
    per-line objects.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        slots = config.num_sets * config.assoc
        self._tags: List[Optional[int]] = [None] * slots
        self._dirty: List[int] = [0] * slots
        self._assoc = config.assoc
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._sets_pow2 = config.num_sets & (config.num_sets - 1) == 0
        # statistics
        self.accesses = 0
        self.misses = 0
        self.writebacks = 0

    def line_addr(self, addr: int) -> int:
        """Aligned line address containing byte ``addr``."""
        return (addr >> self._line_shift) << self._line_shift

    def _index(self, addr: int) -> Tuple[int, int]:
        line = addr >> self._line_shift
        if self._sets_pow2:
            return line & self._set_mask, line
        return line % self.config.num_sets, line

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU state or statistics.

        The set index is computed inline, as in :meth:`access`: the
        timed hierarchy probes once or twice per p-thread load.
        """
        line = addr >> self._line_shift
        if self._sets_pow2:
            base = (line & self._set_mask) * self._assoc
        else:
            base = (line % self.config.num_sets) * self._assoc
        return line in self._tags[base : base + self._assoc]

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access ``addr``; allocate on miss.  Returns hit status.

        On a miss the LRU victim is evicted (counted as a writeback if
        dirty) and the new line allocated MRU.  The fill logic is
        inlined here (rather than calling :meth:`_fill`) because this
        method runs once or twice per simulated instruction; the
        slow-path :meth:`fill` shares the helper.
        """
        line = addr >> self._line_shift
        if self._sets_pow2:
            set_index = line & self._set_mask
        else:
            set_index = line % self.config.num_sets
        assoc = self._assoc
        base = set_index * assoc
        end = base + assoc
        tags = self._tags
        self.accesses += 1
        if tags[base] == line:
            # MRU hit: no reordering needed; by far the common case in
            # loop-heavy programs, so it skips the set slice entirely.
            if is_write:
                self._dirty[base] = 1
            return True
        ways = tags[base:end]
        if line in ways:
            pos = base + ways.index(line)
            dirty = self._dirty
            if pos != base:
                # Move the hit way to MRU, shifting the rest down.
                d = dirty[pos]
                tags[base + 1 : pos + 1] = tags[base:pos]
                dirty[base + 1 : pos + 1] = dirty[base:pos]
                tags[base] = line
                dirty[base] = d
            if is_write:
                dirty[base] = 1
            return True
        self.misses += 1
        last = end - 1
        dirty = self._dirty
        if tags[last] is not None and dirty[last]:
            self.writebacks += 1
        tags[base + 1 : end] = tags[base:last]
        dirty[base + 1 : end] = dirty[base:last]
        tags[base] = line
        dirty[base] = 1 if is_write else 0
        return False

    def fill(self, addr: int, *, dirty: bool = False) -> None:
        """Install the line containing ``addr`` (prefetch fill path)."""
        if not self.probe(addr):
            self._fill(addr, dirty=dirty)

    def invalidate(self, addr: int) -> bool:
        """Drop the line containing ``addr``; returns True if present."""
        set_index, tag = self._index(addr)
        base = set_index * self._assoc
        end = base + self._assoc
        tags = self._tags
        dirty = self._dirty
        for pos in range(base, end):
            if tags[pos] == tag:
                tags[pos:end] = tags[pos + 1 : end] + [None]
                dirty[pos:end] = dirty[pos + 1 : end] + [0]
                return True
        return False

    def _fill(self, addr: int, *, dirty: bool) -> None:
        set_index, tag = self._index(addr)
        base = set_index * self._assoc
        last = base + self._assoc - 1
        tags = self._tags
        dirt = self._dirty
        if tags[last] is not None and dirt[last]:
            self.writebacks += 1
        tags[base + 1 : last + 1] = tags[base:last]
        dirt[base + 1 : last + 1] = dirt[base:last]
        tags[base] = tag
        dirt[base] = 1 if dirty else 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    def miss_rate(self) -> float:
        """Misses per access (0.0 if never accessed)."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0
        self.writebacks = 0

    def publish_metrics(self, registry, prefix: str) -> None:
        """Fold this cache's counters into a metrics registry under
        ``prefix`` (e.g. ``functional.l1``).  Called at run boundaries,
        never from the lookup fast path."""
        registry.counter(f"{prefix}.accesses").inc(self.accesses)
        registry.counter(f"{prefix}.misses").inc(self.misses)
        registry.counter(f"{prefix}.writebacks").inc(self.writebacks)

    def resident_lines(self) -> int:
        """Number of lines currently resident (for tests)."""
        return sum(1 for tag in self._tags if tag is not None)
