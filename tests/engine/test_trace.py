"""Tests for the numpy-backed trace container."""

import pytest

from repro.engine.trace import Trace


class TestTrace:
    def test_append_and_record(self):
        trace = Trace()
        index = trace.append(pc=5, addr=100, level=3, dep1=0, taken=True)
        assert index == 0
        record = trace.record(0)
        assert record.pc == 5
        assert record.addr == 100
        assert record.level == 3
        assert record.dep1 == 0
        assert record.dep2 == -1
        assert record.taken

    def test_growth_preserves_data(self):
        trace = Trace()
        for i in range(100):
            trace.append(pc=i)
        assert len(trace) == 100
        assert all(trace.record(i).pc == i for i in range(100))

    def test_trim_releases_capacity(self):
        trace = Trace()
        trace.append(pc=1)
        trace.trim()
        assert len(trace.pc) == 1
        assert trace.record(0).pc == 1

    def test_record_bounds_checked(self):
        trace = Trace()
        trace.append(pc=0)
        with pytest.raises(IndexError):
            trace.record(1)
        with pytest.raises(IndexError):
            trace.record(-1)

    def test_iteration(self):
        trace = Trace()
        for i in range(5):
            trace.append(pc=i)
        assert [r.pc for r in trace] == list(range(5))

    def test_static_counts(self):
        trace = Trace()
        for pc in [0, 1, 1, 2, 2, 2]:
            trace.append(pc=pc)
        counts = trace.static_counts(4)
        assert list(counts) == [1, 2, 3, 0]

    def test_miss_indices_threshold(self):
        trace = Trace()
        trace.append(pc=0, level=1)
        trace.append(pc=1, level=2)
        trace.append(pc=2, level=3)
        trace.append(pc=3, level=0)
        assert list(trace.miss_indices(3)) == [2]
        assert list(trace.miss_indices(2)) == [1, 2]
