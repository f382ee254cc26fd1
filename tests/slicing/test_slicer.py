"""Tests for the dynamic backward slicer."""

import numpy as np
import pytest

from repro.engine.functional import run_program
from repro.isa import DataImage, assemble
from repro.slicing.slicer import Slicer


def trace_of(source, data=None):
    return run_program(assemble(source, data=data)).trace


class TestSlicer:
    def test_straight_line_address_chain(self):
        trace = trace_of(
            """
            addi r1, r0, 256     # 0
            slli r2, r1, 2       # 1
            addi r3, r2, 4       # 2
            lw   r4, 0(r3)       # 3
            halt
            """
        )
        dyn_slice = Slicer(trace, scope=100).slice_at(3)
        assert dyn_slice.indices == (3, 2, 1, 0)

    def test_unrelated_instructions_excluded(self):
        trace = trace_of(
            """
            addi r1, r0, 256     # 0: address chain
            addi r9, r0, 7       # 1: unrelated
            addi r8, r9, 1       # 2: unrelated
            lw   r4, 0(r1)       # 3
            halt
            """
        )
        dyn_slice = Slicer(trace, scope=100).slice_at(3)
        assert dyn_slice.indices == (3, 0)

    def test_scope_truncates(self):
        trace = trace_of(
            """
            addi r1, r0, 256
            nop
            nop
            nop
            nop
            lw   r4, 0(r1)
            halt
            """
        )
        full = Slicer(trace, scope=100).slice_at(5)
        assert full.indices == (5, 0)
        narrow = Slicer(trace, scope=3).slice_at(5)
        assert narrow.indices == (5,)  # producer out of scope -> live-in

    def test_memory_dependence_pulls_in_store(self):
        trace = trace_of(
            """
            addi r1, r0, 1024    # 0
            addi r2, r0, 4096    # 1: value (an address)
            sw   r2, 0(r1)       # 2: spill
            lw   r3, 0(r1)       # 3: reload
            lw   r4, 0(r3)       # 4: target
            halt
            """
        )
        dyn_slice = Slicer(trace, scope=100).slice_at(4)
        assert dyn_slice.indices == (4, 3, 2, 1, 0)
        # The reload depends on the spill (memdep) and on its base; the
        # spill on its base (dep1) and on its value (dep2).
        assert dyn_slice.dep_positions == ((1,), (2, 4), (3, 4), (), ())

    def test_max_length_limits_growth(self):
        lines = ["addi r1, r0, 8192"]
        for _ in range(20):
            lines.append("addi r1, r1, 4")
        lines.append("lw r2, 0(r1)")
        lines.append("halt")
        trace = trace_of("\n".join(lines))
        dyn_slice = Slicer(trace, scope=1000, max_length=5).slice_at(21)
        assert len(dyn_slice) <= 6

    def test_indices_strictly_descending(self, pharmacy_small_run):
        trace = pharmacy_small_run.trace
        slicer = Slicer(trace, scope=512)
        for root in trace.miss_indices(3)[:50]:
            indices = slicer.slice_at(int(root)).indices
            assert all(a > b for a, b in zip(indices, indices[1:]))

    def test_dep_positions_point_backward_in_slice(self, pharmacy_small_run):
        trace = pharmacy_small_run.trace
        slicer = Slicer(trace, scope=512)
        for root in trace.miss_indices(3)[:50]:
            dyn_slice = slicer.slice_at(int(root))
            for position, deps in enumerate(dyn_slice.dep_positions):
                # producers are older => later slice positions
                assert all(dep > position for dep in deps)

    def test_branches_never_in_slices(self, pharmacy_small_run):
        trace = pharmacy_small_run.trace
        slicer = Slicer(trace, scope=512)
        program_pcs = trace.pc
        # pcs 1..14 hold the loop; branches are at pcs 1,3,4 and jumps 6,14.
        branch_pcs = {1, 3, 4, 6, 14}
        for root in trace.miss_indices(3)[:50]:
            dyn_slice = slicer.slice_at(int(root))
            slice_pcs = {int(program_pcs[i]) for i in dyn_slice.indices}
            assert not (slice_pcs & branch_pcs)

    def test_validation(self):
        trace = trace_of("nop\nhalt")
        with pytest.raises(ValueError):
            Slicer(trace, scope=0)
        with pytest.raises(ValueError):
            Slicer(trace, max_length=0)
        with pytest.raises(IndexError):
            Slicer(trace).slice_at(99)
