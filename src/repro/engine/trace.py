"""Compact dynamic-trace storage.

A :class:`Trace` holds one dynamic record per executed instruction in
parallel numpy arrays.  This keeps multi-hundred-thousand-instruction
traces cheap (a few dozen bytes per record instead of a Python object)
while letting the slicer walk dependence edges with plain integer
indexing.

A trace is immutable once built.  The functional simulator records
once per executed instruction into a plain list of record tuples —
appending to a Python list is several times faster than seven numpy
scalar stores — and hands the list over whole; the trace converts it
to the parallel numpy arrays lazily, the first time a column is read.
The array attributes (``trace.pc`` etc.) are properties backed by that
materialization, so consumers are unaffected by the buffering.

Per-record fields:

* ``pc`` — static PC of the instruction.
* ``addr`` — effective byte address for loads/stores, -1 otherwise.
* ``level`` — for loads, the :class:`~repro.memory.hierarchy.MemoryLevel`
  that satisfied the access (0 for non-loads).
* ``dep1`` / ``dep2`` — dynamic indices of the producers of the first
  and second register source operands (-1 if the value is a program
  live-in or the operand does not exist).
* ``memdep`` — for loads, the dynamic index of the most recent store to
  the same word (-1 if the value came from the initial data image).
* ``taken`` — for branches, 1 if taken.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class Trace:
    """Immutable record-tuple trace with lazy parallel-array views.

    Args:
        records: record tuples in :attr:`FIELDS` order, one per
            dynamic instruction; the trace takes ownership of the list,
            which no one may change afterwards.  ``None`` is an empty
            trace.
    """

    #: Parallel-array field names, in record/serialization order.
    FIELDS = ("pc", "addr", "level", "dep1", "dep2", "memdep", "taken")

    _DTYPES = {
        "pc": np.int32,
        "addr": np.int64,
        "level": np.int8,
        "dep1": np.int64,
        "dep2": np.int64,
        "memdep": np.int64,
        "taken": np.int8,
    }

    def __init__(self, records: Optional[List[Tuple]] = None) -> None:
        self._records: Optional[List[Tuple]] = (
            [] if records is None else records
        )
        self._arrays: Optional[Dict[str, np.ndarray]] = None

    @property
    def length(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._arrays["pc"])

    def __len__(self) -> int:
        return self.length

    def _materialize(self) -> Dict[str, np.ndarray]:
        arrays = self._arrays
        if arrays is None:
            records = self._records
            if records:
                # One 2-D conversion then per-column casts: measurably
                # faster than transposing the record tuples in Python.
                table = np.array(records, dtype=np.int64)
                arrays = {
                    name: table[:, i].astype(self._DTYPES[name])
                    for i, name in enumerate(self.FIELDS)
                }
            else:
                arrays = {
                    name: np.array((), dtype=self._DTYPES[name])
                    for name in self.FIELDS
                }
            self._arrays = arrays
        return arrays

    # -- parallel-array views -------------------------------------------

    @property
    def pc(self) -> np.ndarray:
        return self._materialize()["pc"]

    @property
    def addr(self) -> np.ndarray:
        return self._materialize()["addr"]

    @property
    def level(self) -> np.ndarray:
        return self._materialize()["level"]

    @property
    def dep1(self) -> np.ndarray:
        return self._materialize()["dep1"]

    @property
    def dep2(self) -> np.ndarray:
        return self._materialize()["dep2"]

    @property
    def memdep(self) -> np.ndarray:
        return self._materialize()["memdep"]

    @property
    def taken(self) -> np.ndarray:
        return self._materialize()["taken"]

    def miss_indices(self, min_level: int) -> np.ndarray:
        """Dynamic indices of loads that missed to ``min_level`` or beyond."""
        return np.nonzero(self.level >= min_level)[0]

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dict.

        Arrays are packed as base64 of their little-endian raw bytes so
        multi-hundred-thousand-record traces stay compact and cheap to
        round-trip (no per-record Python objects).
        """
        import base64

        payload: dict = {"length": self.length}
        for name in self.FIELDS:
            arr = getattr(self, name)
            arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
            payload[name] = {
                "dtype": arr.dtype.str,
                "data": base64.b64encode(arr.tobytes()).decode("ascii"),
            }
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output."""
        import base64

        trace = cls()
        arrays: Dict[str, np.ndarray] = {}
        for name in cls.FIELDS:
            field = data[name]
            raw = base64.b64decode(field["data"])
            arr = np.frombuffer(raw, dtype=np.dtype(field["dtype"]))
            arrays[name] = arr.astype(cls._DTYPES[name], copy=True)
        trace._arrays = arrays
        trace._records = None
        return trace
