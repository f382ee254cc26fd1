"""Sparse word-granular main memory.

Backing store for the functional simulator.  Addresses are byte
addresses; storage is word-granular and sparse (a dict), so workloads
can scatter data structures across a large address space without
allocating it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.opcodes import WORD_SIZE
from repro.isa.program import DataImage


class MemoryAlignmentError(Exception):
    """Raised when a load or store address is not word-aligned."""


class MainMemory:
    """Flat, sparse, word-granular memory.

    Args:
        image: optional initial contents copied from a program's
            :class:`~repro.isa.program.DataImage`.
    """

    def __init__(self, image: Optional[DataImage] = None) -> None:
        self._words: Dict[int, int] = dict(image.words) if image else {}

    def load(self, addr: int) -> int:
        """Read the word at byte address ``addr`` (0 if uninitialized)."""
        if addr % WORD_SIZE:
            raise MemoryAlignmentError(f"unaligned load: {addr:#x}")
        return self._words.get(addr, 0)

    def store(self, addr: int, value: int) -> None:
        """Write ``value`` to the word at byte address ``addr``."""
        if addr % WORD_SIZE:
            raise MemoryAlignmentError(f"unaligned store: {addr:#x}")
        self._words[addr] = value

    def raw_words(self) -> Dict[int, int]:
        """The live backing dict, for compiled blocks' inlined
        aligned-access fast path (misaligned addresses still go through
        :meth:`load`/:meth:`store` for the alignment error)."""
        return self._words

    def snapshot(self) -> Dict[int, int]:
        """A copy of all initialized words (for checkpoint/restore)."""
        return dict(self._words)

    def restore(self, snapshot: Dict[int, int]) -> None:
        """Replace contents with a previously taken :meth:`snapshot`."""
        self._words = dict(snapshot)

    def __len__(self) -> int:
        return len(self._words)
