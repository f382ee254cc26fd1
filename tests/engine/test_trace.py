"""Tests for the numpy-backed trace container."""

from repro.engine.trace import Trace


def record(pc, addr=-1, level=0, dep1=-1, dep2=-1, memdep=-1, taken=False):
    """One record tuple in ``Trace.FIELDS`` order."""
    return (pc, addr, level, dep1, dep2, memdep, taken)


class TestTrace:
    def test_record_view(self):
        # Every field of a record reads back through its column.
        trace = Trace([record(5, addr=100, level=3, dep1=0, taken=True)])
        assert trace.pc[0] == 5
        assert trace.addr[0] == 100
        assert trace.level[0] == 3
        assert trace.dep1[0] == 0
        assert trace.dep2[0] == -1
        assert trace.memdep[0] == -1
        assert trace.taken[0]

    def test_arrays_preserve_data(self):
        trace = Trace([record(i) for i in range(100)])
        assert len(trace) == 100
        assert trace.pc.tolist() == list(range(100))

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
