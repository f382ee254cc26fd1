"""Tests for the discrete-event timing simulator.

Heap ordering (including the stable insertion-order tie-break the
front end depends on), typed-handler scheduling as observed through
the event journal, the constructor contract, and the auxiliary
metrics.
Cross-model agreement itself is pinned by the parity suite
(``tests/validation/test_parity.py`` and the ``timing_parity`` oracle
family); these tests cover the event machinery.
"""

import pytest

from repro.fuzz.generator import generate
from repro.isa import DataImage, assemble
from repro.obs import AUXILIARY_METRICS, get_registry, reset_registry
from repro.timing.config import BASELINE, PRE_EXECUTION
from repro.timing.eventsim import (
    EV_FETCH,
    EV_ISSUE,
    EV_RETIRE,
    EventHeap,
    EventSimulator,
    JOURNAL_LIMIT,
)


class TestEventHeap:
    def test_pops_in_time_order(self):
        heap = EventHeap()
        for time in (9, 3, 7, 1, 5):
            heap.push(time, EV_FETCH, time)
        times = [heap.pop()[0] for _ in range(5)]
        assert times == [1, 3, 5, 7, 9]

    def test_equal_times_pop_in_insertion_order(self):
        # The front end relies on this: a p-thread burst pushed before
        # a same-cycle fetch must steal bandwidth from that fetch.
        heap = EventHeap()
        for payload in range(10):
            heap.push(42, EV_ISSUE, payload)
        payloads = [heap.pop()[3] for _ in range(10)]
        assert payloads == list(range(10))

    def test_interleaved_pushes_keep_stable_order(self):
        heap = EventHeap()
        heap.push(5, EV_FETCH, "a")
        heap.push(1, EV_FETCH, "early")
        heap.push(5, EV_FETCH, "b")
        assert heap.pop()[3] == "early"
        heap.push(5, EV_FETCH, "c")
        assert [heap.pop()[3] for _ in range(3)] == ["a", "b", "c"]

    def test_depth_and_throughput_counters(self):
        heap = EventHeap()
        for i in range(8):
            heap.push(i, EV_RETIRE, None)
        assert heap.max_depth == 8
        for _ in range(3):
            heap.pop()
        heap.push(99, EV_RETIRE, None)
        assert heap.max_depth == 8  # high-water, not current depth
        assert heap.pushes == 9
        assert heap.pops == 3
        assert len(heap) == 6
        assert bool(heap)
        while heap:
            heap.pop()
        assert not heap


def run_event(source, hierarchy, mode=BASELINE, data=None, **kwargs):
    program = assemble(source, data=data)
    sim = EventSimulator(program, hierarchy, **kwargs)
    return sim, sim.run(mode)


class TestHandlerScheduling:
    @pytest.fixture
    def journal(self, tiny_hierarchy):
        source = """
            addi a0, zero, 0
            addi a1, zero, 40
            addi t0, zero, 8192
        loop:
            bge  a0, a1, done
            slli t1, a0, 4
            add  t1, t1, t0
            lw   t2, 0(t1)
            add  s0, s0, t2
            sw   s0, 4096(zero)
            addi a0, a0, 1
            j    loop
        done:
            halt
        """
        data = DataImage()
        data.store_words(8192, range(0, 640))
        sim, stats = run_event(source, tiny_hierarchy, data=data)
        assert stats.l2_misses > 0  # the walk must stress the hierarchy
        return sim.last_journal

    def test_first_event_is_fetch_at_cycle_zero(self, journal):
        assert journal[0] == (0, "fetch", None)

    def test_every_typed_handler_fires(self, journal):
        names = {entry[1] for entry in journal}
        assert {"fetch", "issue", "retire", "cache_fill"} <= names
        assert "mshr_release" in names  # L2 misses allocate MSHRs

    def test_issue_follows_fetch_by_dispatch_latency(self, journal):
        first_issue = next(e for e in journal if e[1] == "issue")
        assert first_issue[0] == 2  # fetch cycle 0 + dispatch latency

    def test_popped_events_are_chronological(self, journal):
        # Inline-dispatched launch entries carry future dispatch times;
        # every heap-popped event must pop in nondecreasing time order.
        popped = [e[0] for e in journal if e[1] != "pthread_launch"]
        assert popped == sorted(popped)

    def test_retire_payloads_are_program_ordered(self, journal):
        retires = [e[2] for e in journal if e[1] == "retire"]
        assert retires == sorted(retires)
        assert retires[0] == 1

    def test_journal_is_bounded(self, tiny_hierarchy):
        source = "\n".join(["addi r1, r1, 1"] * 2000) + "\nhalt"
        sim, stats = run_event(source, tiny_hierarchy)
        assert stats.instructions == 2001
        assert len(sim.last_journal) == JOURNAL_LIMIT
        assert sim.last_event_count > JOURNAL_LIMIT

    def test_pthread_bursts_fire_with_schedule(self, tiny_hierarchy):
        # A fuzz workload with a real selection exercises the launch
        # and burst handlers end to end.
        from repro.engine.functional import FunctionalSimulator
        from repro.model.params import ModelParams, SelectionConstraints
        from repro.selection.program_selector import select_pthreads

        workload = generate(7)  # loop_nest: launches and drops
        func = FunctionalSimulator(
            workload.program, workload.hierarchy
        ).run(max_instructions=100_000)
        params = ModelParams(
            bw_seq=8,
            unassisted_ipc=1.0,
            mem_latency=workload.hierarchy.mem_latency,
            load_latency=workload.hierarchy.l1.hit_latency,
        )
        selection = select_pthreads(
            workload.program, func.trace, params, SelectionConstraints()
        )
        assert selection.pthreads
        sim = EventSimulator(
            workload.program, workload.hierarchy,
            pthreads=selection.pthreads,
        )
        stats = sim.run(PRE_EXECUTION, max_instructions=100_000)
        assert stats.pthread_launches > 0
        names = {entry[1] for entry in sim.last_journal}
        assert "pthread_launch" in names
        assert "pthread_burst" in names


class TestEngineSeam:
    def test_rejects_pthreads_and_schedule_together(self, tiny_hierarchy):
        program = assemble("halt")
        with pytest.raises(ValueError, match="not both"):
            EventSimulator(
                program, tiny_hierarchy, pthreads=[], schedule=[]
            )


class TestMetrics:
    def test_auxiliary_metrics_published(self, tiny_hierarchy):
        reset_registry()
        source = "\n".join(["addi r1, r1, 1"] * 50) + "\nhalt"
        sim, stats = run_event(source, tiny_hierarchy)
        snapshot = get_registry().snapshot()
        assert snapshot["eventsim.runs"]["value"] == 1
        assert snapshot["eventsim.instructions"]["value"] == 51
        assert (
            snapshot["eventsim.events"]["value"] == sim.last_event_count
        )
        assert (
            snapshot["eventsim.heap.max_depth"]["value"]
            == sim.last_heap_max_depth
        )
        # Every published name is registered in the auxiliary catalog
        # with the right type (they must stay out of METRIC_CATALOG:
        # pipeline snapshots never contain them).
        for name, entry in snapshot.items():
            if name.startswith("eventsim."):
                assert AUXILIARY_METRICS[name] == entry["type"]
