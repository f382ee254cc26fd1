"""Program container: placed instructions, labels, and a data image.

A :class:`Program` is the unit both simulators consume: a list of
instructions with resolved PCs and branch targets, plus a
:class:`DataImage` describing the initial contents of data memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.isa.instruction import Instruction
from repro.isa.opcodes import WORD_SIZE


class ProgramError(Exception):
    """Raised for malformed programs (unknown labels, bad PCs, ...)."""


@dataclass
class DataImage:
    """Initial data memory contents, word-granular and sparse.

    Addresses are byte addresses; values are stored per word.  The image
    also tracks named regions so workloads can report where their data
    structures live (useful in examples and debugging output).
    """

    words: Dict[int, int] = field(default_factory=dict)
    regions: Dict[str, range] = field(default_factory=dict)

    def store_word(self, addr: int, value: int) -> None:
        """Set the word at byte address ``addr`` (must be word-aligned)."""
        if addr % WORD_SIZE:
            raise ProgramError(f"unaligned data address: {addr:#x}")
        self.words[addr] = value

    def store_words(self, addr: int, values: Iterable[int]) -> None:
        """Store consecutive words starting at ``addr``."""
        for offset, value in enumerate(values):
            self.store_word(addr + offset * WORD_SIZE, value)

    def load_word(self, addr: int) -> int:
        """Read the word at ``addr`` (0 if never written)."""
        return self.words.get(addr, 0)

    def add_region(self, name: str, start: int, num_words: int) -> range:
        """Record a named region of ``num_words`` words at ``start``."""
        region = range(start, start + num_words * WORD_SIZE, WORD_SIZE)
        self.regions[name] = region
        return region


class Program:
    """A linked program: instructions with resolved PCs and targets.

    Args:
        instructions: instructions in layout order.  Their ``pc`` fields
            are (re)assigned here; textual targets are resolved against
            ``labels``.
        labels: label name -> instruction index.
        data: initial data memory image.
        name: human-readable program name.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        labels: Optional[Dict[str, int]] = None,
        data: Optional[DataImage] = None,
        name: str = "program",
    ) -> None:
        labels = dict(labels or {})
        placed: List[Instruction] = []
        for index, inst in enumerate(instructions):
            target = inst.target
            if isinstance(target, str):
                if target not in labels:
                    raise ProgramError(f"undefined label: {target!r}")
                inst = inst.with_target(labels[target])
            placed.append(inst.with_pc(index))
        if not placed:
            raise ProgramError("empty program")
        for inst in placed:
            if inst.is_control and inst.target is not None:
                if not 0 <= int(inst.target) < len(placed):
                    raise ProgramError(
                        f"branch target out of range at pc {inst.pc}: "
                        f"{inst.target}"
                    )
        self.name = name
        self.instructions: List[Instruction] = placed
        self.labels: Dict[str, int] = labels
        self.data: DataImage = data if data is not None else DataImage()

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def label_for_pc(self, pc: int) -> Optional[str]:
        """Return a label pointing at ``pc``, if any."""
        for name, index in self.labels.items():
            if index == pc:
                return name
        return None
