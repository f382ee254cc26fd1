"""Tests for the numpy-backed trace container."""

import pytest

from repro.engine.trace import Trace


def record(pc, addr=-1, level=0, dep1=-1, dep2=-1, memdep=-1, taken=False):
    """One record tuple in ``Trace.FIELDS`` order."""
    return (pc, addr, level, dep1, dep2, memdep, taken)


class TestTrace:
    def test_record_view(self):
        trace = Trace([record(5, addr=100, level=3, dep1=0, taken=True)])
        record0 = trace.record(0)
        assert record0.index == 0
        assert record0.pc == 5
        assert record0.addr == 100
        assert record0.level == 3
        assert record0.dep1 == 0
        assert record0.dep2 == -1
        assert record0.taken

    def test_arrays_preserve_data(self):
        trace = Trace([record(i) for i in range(100)])
        assert len(trace) == 100
        assert trace.pc.tolist() == list(range(100))
        assert all(trace.record(i).pc == i for i in range(100))

    def test_record_bounds_checked(self):
        trace = Trace([record(0)])
        with pytest.raises(IndexError):
            trace.record(1)
        with pytest.raises(IndexError):
            trace.record(-1)

    def test_iteration(self):
        trace = Trace([record(i) for i in range(5)])
        assert [r.pc for r in trace] == list(range(5))

    def test_static_counts(self):
        trace = Trace([record(pc) for pc in [0, 1, 1, 2, 2, 2]])
        counts = trace.static_counts(4)
        assert list(counts) == [1, 2, 3, 0]

    def test_miss_indices_threshold(self):
        trace = Trace(
            [
                record(0, level=1),
                record(1, level=2),
                record(2, level=3),
                record(3, level=0),
            ]
        )
        assert list(trace.miss_indices(3)) == [2]
        assert list(trace.miss_indices(2)) == [1, 2]
