"""Tests for the timing simulator core (baseline behaviour)."""

import pytest

from repro.isa import DataImage, assemble
from repro.timing.config import BASELINE, MachineConfig, PERFECT_L2
from repro.timing.core import TimingSimulator, _store_queue_put


def simulate(source, hierarchy, machine=None, data=None, mode=BASELINE):
    program = assemble(source, data=data)
    sim = TimingSimulator(program, hierarchy, machine)
    return sim.run(mode)


class TestBasics:
    def test_functional_correctness_preserved(self, tiny_hierarchy):
        """The timing model must not change architectural results."""
        from repro.engine import run_program

        source = """
            addi a0, zero, 0
            addi a1, zero, 50
        loop:
            bge  a0, a1, done
            slli t1, a0, 2
            addi t1, t1, 8192
            lw   t2, 0(t1)
            add  s0, s0, t2
            sw   s0, 4096(zero)
            addi a0, a0, 1
            j    loop
        done:
            halt
        """
        data = DataImage()
        data.store_words(8192, range(50))
        program = assemble(source, data=data)
        functional = run_program(program)
        stats = TimingSimulator(program, tiny_hierarchy).run(BASELINE)
        assert stats.instructions == functional.instructions
        assert stats.loads == functional.loads
        assert stats.stores == functional.stores

    def test_ipc_bounded_by_width(self, tiny_hierarchy):
        stats = simulate(
            "\n".join(["addi r1, r1, 1"] * 200 + ["halt"]), tiny_hierarchy
        )
        assert stats.ipc <= 8.0

    def test_narrow_machine_slower(self, tiny_hierarchy):
        source = "\n".join(
            f"addi r{1 + i % 8}, r0, {i}" for i in range(400)
        ) + "\nhalt"
        wide = simulate(source, tiny_hierarchy, MachineConfig(bw_seq=8))
        narrow = simulate(source, tiny_hierarchy, MachineConfig(bw_seq=2))
        assert narrow.cycles > wide.cycles

    def test_dependent_chain_serializes(self, tiny_hierarchy):
        independent = "\n".join(
            f"addi r{1 + i % 8}, r0, 1" for i in range(64)
        ) + "\nhalt"
        dependent = "\n".join("addi r1, r1, 1" for _ in range(64)) + "\nhalt"
        fast = simulate(independent, tiny_hierarchy)
        slow = simulate(dependent, tiny_hierarchy)
        assert slow.cycles > fast.cycles

    def test_window_limits_lookahead(self):
        # Many independent loads: a small window serializes them.  Use
        # a memory system rich enough (MSHRs, bus) that the window is
        # the binding constraint.
        from repro.memory import CacheConfig, HierarchyConfig

        rich = HierarchyConfig(
            l1=CacheConfig("L1D", 1024, 32, 2, 2),
            l2=CacheConfig("L2", 4096, 64, 4, 6),
            mem_latency=70,
            mshr_entries=64,
            memory_bus_bytes=64,
            memory_bus_divisor=1,
        )
        lines = ["addi r1, r0, 65536"]
        for i in range(40):
            lines.append(f"lw r{2 + i % 6}, {i * 4096}(r1)")
        lines.append("halt")
        source = "\n".join(lines)
        big = simulate(source, rich, MachineConfig(window=128))
        small = simulate(source, rich, MachineConfig(window=2))
        assert small.cycles > big.cycles

    def test_l2_misses_counted(self, sum_loop_program, tiny_hierarchy):
        from repro.engine import run_program

        stats = TimingSimulator(sum_loop_program, tiny_hierarchy).run(BASELINE)
        functional = run_program(sum_loop_program, tiny_hierarchy)
        assert stats.l2_misses == functional.l2_misses


class TestMemoryTiming:
    def test_misses_cost_cycles(self, sum_loop_program, tiny_hierarchy):
        with_misses = TimingSimulator(sum_loop_program, tiny_hierarchy).run(
            BASELINE
        )
        perfect = TimingSimulator(sum_loop_program, tiny_hierarchy).run(
            PERFECT_L2
        )
        assert perfect.cycles < with_misses.cycles
        assert perfect.l2_misses == with_misses.l2_misses  # still counted

    def test_higher_latency_costs_more(self, sum_loop_program, tiny_hierarchy):
        slow_config = tiny_hierarchy.with_mem_latency(280)
        fast = TimingSimulator(sum_loop_program, tiny_hierarchy).run(BASELINE)
        slow = TimingSimulator(sum_loop_program, slow_config).run(BASELINE)
        assert slow.cycles > fast.cycles

    def test_baseline_records_miss_exposure(self):
        from repro.workloads.suite import build

        workload = build(
            "pharmacy", "train", n_xact=900, n_drugs=16384, hot_drugs=1024
        )
        stats = TimingSimulator(workload.program, workload.hierarchy).run(
            BASELINE
        )
        assert stats.miss_exposure
        for count, cycles in stats.miss_exposure.values():
            assert count > 0 and cycles >= 0

    def test_store_forwarding_fast(self, tiny_hierarchy):
        source = """
            addi r1, r0, 65536
            addi r2, r0, 7
            sw   r2, 0(r1)
            lw   r3, 0(r1)
            halt
        """
        stats = simulate(source, tiny_hierarchy)
        # The load forwards from the store queue — far below miss time.
        assert stats.cycles < 30


class TestBranches:
    def test_random_branches_cost_cycles(self, tiny_hierarchy):
        # Data-dependent branch pattern from an LCG.
        source = """
            addi r1, r0, 12345
            addi r2, r0, 1103515245
            addi r3, r0, 0
            addi r4, r0, 300
        loop:
            bge  r3, r4, done
            mul  r1, r1, r2
            addi r1, r1, 12345
            srli r5, r1, 9
            andi r5, r5, 1
            beq  r5, zero, even
            addi r6, r6, 1
            j    next
        even:
            addi r7, r7, 1
        next:
            addi r3, r3, 1
            j    loop
        done:
            halt
        """
        fast_machine = MachineConfig(mispredict_penalty=0)
        slow_machine = MachineConfig(mispredict_penalty=30)
        fast = simulate(source, tiny_hierarchy, fast_machine)
        slow = simulate(source, tiny_hierarchy, slow_machine)
        assert slow.mispredictions > 10
        assert slow.cycles > fast.cycles

    def test_predictable_loop_branch_learned(self, tiny_hierarchy):
        source = """
            addi r1, r0, 0
            addi r2, r0, 500
        loop:
            addi r1, r1, 1
            blt  r1, r2, loop
            halt
        """
        stats = simulate(source, tiny_hierarchy)
        assert stats.misprediction_rate < 0.05

    def test_stats_describe(self, tiny_hierarchy):
        stats = simulate("nop\nhalt", tiny_hierarchy)
        assert "IPC" in stats.describe()


class TestStoreQueue:
    """Regression tests for the bounded store queue's recency order."""

    def test_restore_moves_entry_to_mru(self):
        queue = {}
        for addr in range(8):
            _store_queue_put(queue, addr, (addr, addr), limit=8)
        # Re-storing address 0 must refresh its recency...
        _store_queue_put(queue, 0, (99, 99), limit=8)
        assert list(queue) == [1, 2, 3, 4, 5, 6, 7, 0]
        assert queue[0] == (99, 99)
        # ...so the next eviction removes the oldest entry (1), not 0.
        _store_queue_put(queue, 100, (0, 0), limit=8)
        assert 0 in queue
        assert 1 not in queue

    def test_eviction_drops_oldest(self):
        queue = {}
        for addr in range(4):
            _store_queue_put(queue, addr, (addr, addr), limit=3)
        assert list(queue) == [1, 2, 3]

    def test_hot_address_survives_under_pressure(self):
        queue = {}
        for round_index in range(64):
            _store_queue_put(queue, 0xBEEF, (round_index, 1), limit=4)
            _store_queue_put(queue, round_index, (0, 0), limit=4)
        # The hot address was re-stored every round, so it must still
        # be forwardable; before the move-to-MRU fix it kept its
        # original insertion slot and was evicted on round 3.
        assert 0xBEEF in queue
        assert queue[0xBEEF][0] == 63
