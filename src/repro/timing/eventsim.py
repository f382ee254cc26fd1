"""Discrete-event timing simulator: the independent second model.

This module is the re-implementation half of the dual-model parity
harness (see DESIGN.md §10 and :mod:`repro.validation.parity`).  It
consumes exactly the same inputs as the trace-driven
:class:`repro.timing.core.TimingSimulator` — a
:class:`~repro.engine.decode.DecodedProgram`, a
:class:`~repro.memory.hierarchy.HierarchyConfig`, a
:class:`~repro.timing.config.MachineConfig`, and a p-thread selection
or schedule — and produces the same :class:`~repro.timing.stats.SimStats`,
but it shares **none** of the trace-driven loop code.  Where the trace
model advances one instruction per loop iteration and carries cycle
arithmetic in local variables, this model advances a priority queue of
typed events:

``FETCH``
    One event per fetch attempt.  The handler applies the window and
    sequencing-bandwidth constraints *at the event's cycle* (stolen
    slots are consulted only for the current cycle, so p-thread burst
    events are always ordered before the fetches they displace),
    functionally executes one instruction, and schedules the
    instruction's ``ISSUE`` and ``RETIRE`` milestones plus the next
    ``FETCH``.
``ISSUE``
    Dispatch milestone at ``fetch + dispatch_latency``; drives the
    in-flight occupancy accounting and the event journal.
``CACHE_FILL`` / ``MSHR_RELEASE``
    Memory-system milestones scheduled when an access misses a cache
    level: the fill landing in the hierarchy and the MSHR entry
    retiring.  They drive the outstanding-miss gauges.
``PTHREAD_LAUNCH``
    A p-thread launch attempt at the trigger's dispatch cycle.
    Dispatched *inline* (a zero-latency event) so the body's cache
    accesses interleave with main-thread accesses in commit order,
    exactly like the trace-driven model's synchronous launch.
``PTHREAD_BURST``
    One event per injection burst; writes the stolen-slot table the
    ``FETCH`` handler reads.
``RETIRE``
    In-order commit marker at the instruction's retirement cycle; the
    handler asserts the commit order the heap reconstructs matches
    program order.

The heap orders events by ``(time, insertion sequence)`` — ties break
on insertion order, which the front end relies on (same-cycle fetches
stay in program order; bursts precede the fetches they displace).

Instruction execution is performed by per-kind kernel functions,
resolved once per PC into a kernel table when the simulator is built.
The model has one dispatch: it is the independent reference, so it
carries no engine switch.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.decode import (
    DecodedProgram,
    K_ALU_I,
    K_ALU_R,
    K_BRANCH,
    K_HALT,
    K_JAL,
    K_JR,
    K_JUMP,
    K_LOAD,
    K_STORE,
)
from repro.frontend.branch_predictor import HybridPredictor
from repro.isa.opcodes import Format
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS
from repro.memory.hierarchy import HierarchyConfig, TimedHierarchy
from repro.memory.main_memory import MainMemory
from repro.obs import get_registry as obs_registry, get_tracer
from repro.pthreads.pthread import StaticPThread
from repro.timing.config import BASELINE, MachineConfig, SimMode
from repro.timing.core import Schedule
from repro.timing.stats import SimStats

# Typed events, in documentation order.
EV_FETCH = 0
EV_ISSUE = 1
EV_CACHE_FILL = 2
EV_MSHR_RELEASE = 3
EV_PTHREAD_LAUNCH = 4
EV_PTHREAD_BURST = 5
EV_RETIRE = 6

EVENT_NAMES: Dict[int, str] = {
    EV_FETCH: "fetch",
    EV_ISSUE: "issue",
    EV_CACHE_FILL: "cache_fill",
    EV_MSHR_RELEASE: "mshr_release",
    EV_PTHREAD_LAUNCH: "pthread_launch",
    EV_PTHREAD_BURST: "pthread_burst",
    EV_RETIRE: "retire",
}

#: How many leading events the journal keeps (diagnostics only).
JOURNAL_LIMIT = 512


class EventHeap:
    """Priority queue of ``(time, seq, kind, payload)`` events.

    Orders by time first; equal-time events pop in **insertion order**
    (``seq`` is a monotonically increasing push counter).  Tracks depth
    statistics for the event-queue observability metrics.
    """

    __slots__ = ("_heap", "_seq", "pushes", "pops", "max_depth")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, object]] = []
        self._seq = 0
        self.pushes = 0
        self.pops = 0
        self.max_depth = 0

    def push(self, time: int, kind: int, payload: object = None) -> int:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, kind, payload))
        self.pushes += 1
        depth = len(self._heap)
        if depth > self.max_depth:
            self.max_depth = depth
        return seq

    def pop(self) -> Tuple[int, int, int, object]:
        self.pops += 1
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class _BodyImage:
    """Pre-decoded p-thread body, event-model edition.

    Independent twin of the trace model's body pre-decode: same burst
    schedule semantics (``pthread_burst`` instructions injected every
    ``pthread_burst_period`` cycles), derived from the
    :class:`StaticPThread` alone.
    """

    __slots__ = (
        "size",
        "kind",
        "rd",
        "rs1",
        "rs2",
        "imm",
        "alu",
        "branch",
        "pcs",
        "latency",
        "live_ins",
        "bursts",
        "busy_cycles",
    )

    def __init__(self, pthread: StaticPThread, machine: MachineConfig) -> None:
        body = pthread.body
        self.size = body.size
        self.kind: List[int] = []
        self.rd: List[int] = []
        self.rs1: List[int] = []
        self.rs2: List[int] = []
        self.imm: List[int] = []
        self.alu: List[Optional[Callable[[int, int], int]]] = []
        self.branch: List[Optional[Callable[[int, int], bool]]] = []
        self.pcs: List[int] = []
        self.latency: List[int] = []
        kind_of = {
            Format.R: K_ALU_R,
            Format.I: K_ALU_I,
            Format.LOAD: K_LOAD,
            Format.BRANCH: K_BRANCH,
        }
        for inst in body.instructions:
            self.kind.append(kind_of.get(inst.info.fmt, K_STORE))
            self.rd.append(inst.rd if inst.rd is not None else 0)
            self.rs1.append(inst.rs1 if inst.rs1 is not None else 0)
            self.rs2.append(inst.rs2 if inst.rs2 is not None else 0)
            self.imm.append(inst.imm)
            self.alu.append(inst.info.alu)
            self.branch.append(inst.info.branch)
            self.pcs.append(inst.pc)
            self.latency.append(inst.info.latency)
        self.live_ins = body.live_ins
        # (cycle offset, first instruction index, count) per burst.
        self.bursts: List[Tuple[int, int, int]] = []
        start, offset = 0, 0
        while start < self.size:
            count = min(machine.pthread_burst, self.size - start)
            self.bursts.append((offset, start, count))
            start += count
            offset += machine.pthread_burst_period
        # Context occupancy: launch cycle + last burst offset + 1.
        self.busy_cycles = (self.bursts[-1][0] if self.bursts else 0) + 1


class _EvState:
    """All mutable state of one event-driven run."""

    __slots__ = (
        "pc",
        "executed",
        "committed",
        "fetch_cycle",
        "cap_used",
        "last_retire",
        "halted",
        "stop",
        "limit",
        "regs",
        "reg_ready",
        "ring",
        "stolen",
        "store_queue",
        "contexts",
        "branch_hints",
        "branch_counts",
        "launching",
        "mode",
        "stats",
        "predictor",
        "prefetcher",
        "hierarchy",
        "memory",
        "region_index",
        "region_end",
        "triggers",
        "heap",
        "journal",
        "inflight_fills",
        "inflight_mshrs",
        "max_inflight_fills",
        "issued",
    )


class EventSimulator:
    """Event-driven timing model of the SMT pre-execution machine.

    Drop-in parity twin of :class:`repro.timing.core.TimingSimulator`:
    same constructor shape (less the engine choice), same :meth:`run`
    contract, same :class:`SimStats` output, same ``last_registers`` /
    ``last_memory`` committed-state capture.  See the module docstring
    for the event formulation.

    Attributes:
        last_registers: committed register file after the latest run.
        last_memory: committed :class:`MainMemory` after the latest run.
        last_event_count: events processed by the latest run.
        last_heap_max_depth: peak event-queue depth of the latest run.
        last_journal: the first :data:`JOURNAL_LIMIT` events of the
            latest run as ``(time, kind name, detail)`` tuples.
    """

    def __init__(
        self,
        program: Program,
        hierarchy_config: HierarchyConfig,
        machine: Optional[MachineConfig] = None,
        pthreads: Optional[Sequence[StaticPThread]] = None,
        schedule: Optional[Schedule] = None,
    ) -> None:
        if pthreads is not None and schedule is not None:
            raise ValueError("pass either pthreads or schedule, not both")
        self.program = program
        self.decoded = DecodedProgram(program)
        self.hierarchy_config = hierarchy_config
        self.machine = machine or MachineConfig()
        if schedule is None:
            schedule = [(0, 1 << 62, list(pthreads or []))]
        self.schedule: Schedule = [
            (start, end, list(pts)) for start, end, pts in schedule
        ]
        self._bodies: Dict[int, _BodyImage] = {}
        for _, _, pts in self.schedule:
            for pthread in pts:
                if id(pthread) not in self._bodies:
                    self._bodies[id(pthread)] = _BodyImage(
                        pthread, self.machine
                    )
        self._hinted_pcs = frozenset(
            pt.body.instructions[-1].pc
            for _, _, pts in self.schedule
            for pt in pts
            if pt.body.targets_branch
        )
        self.last_registers: List[int] = []
        self.last_memory: Optional[MainMemory] = None
        self.last_event_count = 0
        self.last_heap_max_depth = 0
        self.last_journal: List[Tuple[int, str, object]] = []
        # The execution kernel of every PC, resolved from its kind.
        by_kind = {
            K_ALU_R: self._k_alu_r,
            K_ALU_I: self._k_alu_i,
            K_LOAD: self._k_load,
            K_STORE: self._k_store,
            K_BRANCH: self._k_branch,
            K_JUMP: self._k_jump,
            K_JAL: self._k_jal,
            K_JR: self._k_jr,
            K_HALT: self._k_halt,
        }
        self._kernels: List[
            Callable[[_EvState, int, int, int], Tuple[int, int]]
        ] = [by_kind.get(k, self._k_nop) for k in self.decoded.kind]

    # -- run -----------------------------------------------------------

    def run(
        self,
        mode: SimMode = BASELINE,
        max_instructions: int = 50_000_000,
    ) -> SimStats:
        """Simulate to ``halt`` (or an instruction cap); returns stats."""
        machine = self.machine
        st = _EvState()
        st.pc = 0
        st.executed = 0
        st.committed = 0
        st.fetch_cycle = 0
        st.cap_used = 0
        st.last_retire = 0
        st.halted = False
        st.stop = False
        st.limit = max_instructions
        st.regs = [0] * NUM_REGS
        st.reg_ready = [0] * NUM_REGS
        st.ring = [0] * machine.window
        st.stolen = {}
        st.store_queue = {}
        st.contexts = [0] * machine.pthread_contexts
        st.branch_hints = {}
        st.branch_counts = {}
        st.launching = mode.launch and any(pts for _, _, pts in self.schedule)
        st.mode = mode
        st.stats = SimStats(mode=mode.name)
        st.predictor = HybridPredictor()
        st.prefetcher = None
        if machine.stride_prefetch:
            from repro.memory.prefetcher import StridePrefetcher

            st.prefetcher = StridePrefetcher(degree=machine.stride_degree)
        st.hierarchy = TimedHierarchy(
            self.hierarchy_config, perfect_l2=mode.perfect_l2
        )
        st.memory = MainMemory(self.program.data)
        st.region_index = 0
        st.region_end = self.schedule[0][1]
        st.triggers = (
            self._triggers_for(self.schedule[0]) if st.launching else {}
        )
        st.heap = EventHeap()
        st.journal = []
        st.inflight_fills = 0
        st.inflight_mshrs = 0
        st.max_inflight_fills = 0
        st.issued = 0

        handlers: Dict[int, Callable[[_EvState, int, object], None]] = {
            EV_FETCH: self._on_fetch,
            EV_ISSUE: self._on_issue,
            EV_CACHE_FILL: self._on_cache_fill,
            EV_MSHR_RELEASE: self._on_mshr_release,
            EV_PTHREAD_LAUNCH: self._on_pthread_launch,
            EV_PTHREAD_BURST: self._on_pthread_burst,
            EV_RETIRE: self._on_retire,
        }
        heap = st.heap
        heap.push(0, EV_FETCH, None)
        with get_tracer().span(
            "eventsim", program=self.program.name, mode=mode.name
        ):
            while heap:
                time_, _seq, kind_, payload = heap.pop()
                if len(st.journal) < JOURNAL_LIMIT:
                    st.journal.append(
                        (time_, EVENT_NAMES[kind_], payload)
                    )
                handlers[kind_](st, time_, payload)
                if st.stop:
                    break

        stats = st.stats
        hierarchy = st.hierarchy
        stats.instructions = st.executed
        stats.cycles = max(st.last_retire, st.fetch_cycle)
        stats.misses_fully_covered = hierarchy.full_covered
        stats.misses_partially_covered = hierarchy.partial_covered
        stats.partial_covered_cycles = hierarchy.partial_covered_cycles
        stats.prefetches_evicted = hierarchy.evicted_prefetches
        stats.prefetches_unclaimed = hierarchy.unclaimed_prefetches()
        stats.pthread_l2_misses = hierarchy.pt_l2_misses
        stats.l2_misses = (
            hierarchy.mt_l2_misses
            + hierarchy.full_covered
            + hierarchy.partial_covered
        )
        self.last_registers = list(st.regs)
        self.last_memory = st.memory
        self.last_event_count = heap.pops
        self.last_heap_max_depth = heap.max_depth
        self.last_journal = st.journal
        self._publish_metrics(st)
        return stats

    @staticmethod
    def _publish_metrics(st: _EvState) -> None:
        """Fold the run's event-queue totals into the metrics registry.

        These names are deliberately *not* in the stable catalog (the
        CI schema check requires catalog names in a pipeline snapshot,
        and pipelines do not run the event model); they are listed in
        :data:`repro.obs.export.AUXILIARY_METRICS` so their types are
        still pinned when present.
        """
        registry = obs_registry()
        registry.counter("eventsim.runs").inc()
        registry.counter("eventsim.instructions").inc(st.executed)
        registry.counter("eventsim.events").inc(st.heap.pops)
        depth = registry.gauge("eventsim.heap.max_depth")
        if st.heap.max_depth > depth.value:
            depth.set(st.heap.max_depth)
        registry.histogram("eventsim.heap.depth").observe(st.heap.max_depth)
        fills = registry.gauge("eventsim.fills.max_outstanding")
        if st.max_inflight_fills > fills.value:
            fills.set(st.max_inflight_fills)

    # -- schedule regions ----------------------------------------------

    @staticmethod
    def _triggers_for(
        region: Tuple[int, int, List[StaticPThread]]
    ) -> Dict[int, List[StaticPThread]]:
        triggers: Dict[int, List[StaticPThread]] = {}
        for pthread in region[2]:
            triggers.setdefault(pthread.trigger_pc, []).append(pthread)
        return triggers

    def _advance_region(self, st: _EvState) -> None:
        schedule = self.schedule
        index = st.region_index
        while (
            index + 1 < len(schedule)
            and st.executed >= schedule[index][1]
        ):
            index += 1
        st.region_index = index
        st.triggers = self._triggers_for(schedule[index])
        st.region_end = schedule[index][1]

    # -- event handlers ------------------------------------------------

    def _on_fetch(self, st: _EvState, t: int, _payload: object) -> None:
        """Fetch (and execute) one instruction at cycle ``t``.

        The bandwidth check consults stolen slots only for the current
        cycle; advancing to a later cycle reschedules the event so
        every ``PTHREAD_BURST`` for that cycle has fired first.
        """
        if st.halted or st.executed >= st.limit:
            st.stop = True
            return
        if st.launching and st.executed >= st.region_end:
            self._advance_region(st)

        machine = self.machine
        window = machine.window
        heap = st.heap

        nxt = st.executed + 1
        slot = nxt % window
        window_stall = st.ring[slot]
        if window_stall > st.fetch_cycle:
            st.fetch_cycle = window_stall
            st.cap_used = 0
        if st.fetch_cycle > t:
            heap.push(st.fetch_cycle, EV_FETCH, None)
            return
        if st.cap_used >= machine.bw_seq - st.stolen.get(t, 0):
            st.fetch_cycle = t + 1
            st.cap_used = 0
            heap.push(t + 1, EV_FETCH, None)
            return

        pc = st.pc
        st.executed = nxt
        f = st.fetch_cycle
        st.cap_used += 1
        disp = f + machine.dispatch_latency
        heap.push(disp, EV_ISSUE, nxt)

        complete, next_pc = self._kernels[pc](st, pc, f, disp)
        if st.halted:
            st.stop = True
            return

        # In-order retirement frontier.
        if complete < st.last_retire:
            complete = st.last_retire
        st.last_retire = complete
        st.ring[slot] = complete
        heap.push(complete, EV_RETIRE, nxt)

        # P-thread launch attempts at the trigger's dispatch.
        if st.launching:
            waiting = st.triggers.get(pc)
            if waiting is not None:
                for pthread in waiting:
                    if len(st.journal) < JOURNAL_LIMIT:
                        st.journal.append(
                            (disp, EVENT_NAMES[EV_PTHREAD_LAUNCH],
                             pthread.trigger_pc)
                        )
                    self._on_pthread_launch(st, disp, pthread)

        # Drop stale stolen-slot entries periodically (unobservable:
        # fetch cycles are monotonic).
        if not st.executed & 0xFFFF and st.stolen:
            for cycle in [c for c in st.stolen if c < st.fetch_cycle]:
                del st.stolen[cycle]

        st.pc = next_pc
        heap.push(st.fetch_cycle, EV_FETCH, None)

    def _on_issue(self, st: _EvState, t: int, payload: object) -> None:
        """Dispatch milestone: in-flight occupancy bookkeeping."""
        st.issued += 1

    def _on_retire(self, st: _EvState, t: int, payload: object) -> None:
        """In-order commit marker.

        The heap must reconstruct program order from ``(time, seq)``
        alone: retirement frontiers are monotone and retire events are
        pushed in program order, so the next committed index is always
        exactly ``committed + 1``.
        """
        index = payload
        assert index == st.committed + 1, (
            f"out-of-order retire: event #{index} after {st.committed}"
        )
        st.committed = index  # type: ignore[assignment]

    def _on_cache_fill(self, st: _EvState, t: int, payload: object) -> None:
        """A miss's fill landed: outstanding-fill accounting."""
        st.inflight_fills -= 1

    def _on_mshr_release(self, st: _EvState, t: int, payload: object) -> None:
        """An MSHR entry retired with its fill."""
        st.inflight_mshrs -= 1

    def _on_pthread_burst(self, st: _EvState, t: int, payload: object) -> None:
        """One injection burst steals sequencing slots at cycle ``t``."""
        st.stolen[t] = st.stolen.get(t, 0) + payload  # type: ignore[operator]

    def _track_fill(
        self, st: _EvState, level: int, addr: int, ready: int
    ) -> None:
        """Schedule the memory-system milestones of a missing access."""
        if level == 1:
            return
        st.inflight_fills += 1
        if st.inflight_fills > st.max_inflight_fills:
            st.max_inflight_fills = st.inflight_fills
        st.heap.push(ready, EV_CACHE_FILL, (addr, level))
        if level == 3:
            st.inflight_mshrs += 1
            st.heap.push(ready, EV_MSHR_RELEASE, addr)

    # -- instruction kernels (the unit of dispatch) --------------------

    def _k_alu_r(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        d = self.decoded
        rs1, rs2 = d.rs1[pc], d.rs2[pc]
        value = d.alu[pc](st.regs[rs1], st.regs[rs2])
        ready = max(st.reg_ready[rs1], st.reg_ready[rs2], disp)
        complete = ready + d.latency[pc]
        rd = d.rd[pc]
        if rd:
            st.regs[rd] = value
            st.reg_ready[rd] = complete
        return complete, pc + 1

    def _k_alu_i(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        d = self.decoded
        rs1 = d.rs1[pc]
        value = d.alu[pc](st.regs[rs1], d.imm[pc])
        ready = max(st.reg_ready[rs1], disp)
        complete = ready + d.latency[pc]
        rd = d.rd[pc]
        if rd:
            st.regs[rd] = value
            st.reg_ready[rd] = complete
        return complete, pc + 1

    def _k_load(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        d = self.decoded
        st.stats.loads += 1
        rs1 = d.rs1[pc]
        addr = st.regs[rs1] + d.imm[pc]
        value = st.memory.load(addr)
        issue = max(st.reg_ready[rs1], disp) + 1  # address generation
        forwarded = st.store_queue.get(addr)
        if forwarded is not None:
            complete = (
                max(issue, forwarded[0]) + self.machine.store_forward_latency
            )
        else:
            level, complete = st.hierarchy.mt_access_fast(addr, issue)
            if level != 1:
                st.stats.l1_misses += 1
                self._track_fill(st, level, addr, complete)
            if level == 3:
                exposure = st.stats.miss_exposure.get(pc)
                if exposure is None:
                    exposure = [0, 0]
                    st.stats.miss_exposure[pc] = exposure
                exposure[0] += 1
                exposed = complete - st.last_retire
                if exposed > 0:
                    exposure[1] += exposed
            if st.prefetcher is not None:
                for target in st.prefetcher.observe(pc, addr):
                    _lv, ready = st.hierarchy.pt_access_fast(target, issue)
                    self._track_fill(st, _lv, target, ready)
        rd = d.rd[pc]
        if rd:
            st.regs[rd] = value
            st.reg_ready[rd] = complete
        return complete, pc + 1

    def _k_store(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        d = self.decoded
        st.stats.stores += 1
        rs1, rs2 = d.rs1[pc], d.rs2[pc]
        addr = st.regs[rs1] + d.imm[pc]
        st.memory.store(addr, st.regs[rs2])
        complete = max(st.reg_ready[rs1], disp) + 1
        # The write drains in the background but still probes the
        # hierarchy; its misses count like load misses.
        level, ready = st.hierarchy.mt_access_fast(addr, complete, True)
        if level != 1:
            st.stats.l1_misses += 1
            self._track_fill(st, level, addr, ready)
        # Bounded store queue, MRU refresh on re-store.
        queue = st.store_queue
        if addr in queue:
            del queue[addr]
        queue[addr] = (max(complete, st.reg_ready[rs2]), st.regs[rs2])
        if len(queue) > 64:
            del queue[next(iter(queue))]
        return complete, pc + 1

    def _k_branch(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        d = self.decoded
        st.stats.branches += 1
        rs1, rs2 = d.rs1[pc], d.rs2[pc]
        taken = d.branch[pc](st.regs[rs1], st.regs[rs2])
        ready = max(st.reg_ready[rs1], st.reg_ready[rs2], disp)
        complete = ready + 1
        next_pc = d.target[pc] if taken else pc + 1
        correct = st.predictor.predict_and_update(pc, taken, d.target[pc])
        hint = None
        if pc in self._hinted_pcs:
            instance = st.branch_counts.get(pc, 0)
            st.branch_counts[pc] = instance + 1
            per_pc = st.branch_hints.get(pc)
            if per_pc is not None:
                hint = per_pc.pop(instance, None)
        if not correct:
            st.stats.mispredictions += 1
            if hint is not None and hint[0] <= f and hint[1] == int(taken):
                # A p-thread resolved this branch before fetch: the
                # front end follows the hint, no redirect.
                st.stats.mispredicts_covered += 1
            else:
                st.fetch_cycle = complete + self.machine.mispredict_penalty
                st.cap_used = 0
        return complete, next_pc

    def _k_jump(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        st.stats.branches += 1
        return disp, self.decoded.target[pc]

    def _k_jal(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        d = self.decoded
        st.stats.branches += 1
        rd = d.rd[pc]
        if rd:
            st.regs[rd] = pc + 1
            st.reg_ready[rd] = disp
        return disp, d.target[pc]

    def _k_jr(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        d = self.decoded
        st.stats.branches += 1
        rs1 = d.rs1[pc]
        complete = max(st.reg_ready[rs1], disp) + 1
        next_pc = st.regs[rs1]
        if not st.predictor.predict_indirect(pc, next_pc):
            st.stats.mispredictions += 1
            st.fetch_cycle = complete + self.machine.mispredict_penalty
            st.cap_used = 0
        return complete, next_pc

    def _k_halt(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        complete = disp
        if complete > st.last_retire:
            st.last_retire = complete
        st.ring[st.executed % self.machine.window] = st.last_retire
        st.halted = True
        return complete, pc

    def _k_nop(
        self, st: _EvState, pc: int, f: int, disp: int
    ) -> Tuple[int, int]:
        return disp, pc + 1

    # -- p-thread launch + body ----------------------------------------

    def _on_pthread_launch(
        self, st: _EvState, t: int, payload: object
    ) -> None:
        """One launch attempt at cycle ``t`` (the trigger's dispatch).

        Dispatched inline from the fetch handler so the body's cache
        accesses keep their commit-order position between the trigger
        and the next main-thread instruction; the steal side effects go
        through future-dated ``PTHREAD_BURST`` events.
        """
        pthread = payload
        assert isinstance(pthread, StaticPThread)
        body = self._bodies[id(pthread)]
        stats = st.stats
        trigger = pthread.trigger_pc

        slot = -1
        for index, busy_until in enumerate(st.contexts):
            if busy_until <= t:
                slot = index
                break
        if slot < 0:
            stats.pthread_drops += 1
            stats.drops_by_trigger[trigger] = (
                stats.drops_by_trigger.get(trigger, 0) + 1
            )
            return
        st.contexts[slot] = t + body.busy_cycles
        stats.pthread_launches += 1
        stats.launches_by_trigger[trigger] = (
            stats.launches_by_trigger.get(trigger, 0) + 1
        )
        stats.pthread_instructions += body.size

        mode = st.mode
        if mode.steal:
            for offset, _start, count in body.bursts:
                st.heap.push(t + offset, EV_PTHREAD_BURST, count)
        if not mode.execute:
            return
        self._run_body(st, pthread, body, t)

    def _run_body(
        self,
        st: _EvState,
        pthread: StaticPThread,
        body: _BodyImage,
        launch_time: int,
    ) -> None:
        """Execute a launched body with trigger-time seed values."""
        values: Dict[int, int] = {0: 0}
        ready: Dict[int, int] = {0: 0}
        for reg in body.live_ins:
            if reg < NUM_REGS:
                values[reg] = st.regs[reg]
                ready[reg] = st.reg_ready[reg]
            else:  # virtual register with no seed: reads as zero
                values[reg] = 0
                ready[reg] = 0

        mode = st.mode
        forward_latency = self.machine.store_forward_latency
        store_buffer: Dict[int, Tuple[int, int]] = {}
        bursts = body.bursts
        burst_index = 0
        for j in range(body.size):
            while (
                burst_index + 1 < len(bursts)
                and j >= bursts[burst_index + 1][1]
            ):
                burst_index += 1
            inject = launch_time + bursts[burst_index][0]
            k = body.kind[j]
            rs1 = body.rs1[j]
            in_ready = max(ready.get(rs1, 0), inject + 1)
            if k == K_ALU_I:
                value = body.alu[j](values.get(rs1, 0), body.imm[j])
                complete = in_ready + body.latency[j]
            elif k == K_ALU_R:
                rs2 = body.rs2[j]
                in_ready = max(in_ready, ready.get(rs2, 0))
                value = body.alu[j](
                    values.get(rs1, 0), values.get(rs2, 0)
                )
                complete = in_ready + body.latency[j]
            elif k == K_LOAD:
                addr = values.get(rs1, 0) + body.imm[j]
                issue = in_ready + 1
                buffered = store_buffer.get(addr)
                if buffered is not None:
                    data_ready, value = buffered
                    complete = max(issue, data_ready) + forward_latency
                else:
                    value = st.memory.load(addr)
                    if mode.prefetch:
                        level, complete = st.hierarchy.pt_access_fast(
                            addr, issue
                        )
                        self._track_fill(st, level, addr, complete)
                    else:
                        complete = st.hierarchy.phantom_access_fast(
                            addr, issue
                        )[1]
            elif k == K_BRANCH:
                # Terminal branch of a branch-pre-execution body: post
                # its early outcome as a fetch hint for the dynamic
                # instance `instances_ahead` trigger iterations out.
                rs2 = body.rs2[j]
                in_ready = max(in_ready, ready.get(rs2, 0))
                branch_fn = body.branch[j]
                assert branch_fn is not None
                taken = branch_fn(values.get(rs1, 0), values.get(rs2, 0))
                if mode.prefetch:
                    branch_pc = body.pcs[j]
                    seen = st.branch_counts.get(branch_pc, 0)
                    offset = pthread.instances_ahead
                    if pthread.trigger_pc > branch_pc:
                        offset -= 1
                    per_pc = st.branch_hints.setdefault(branch_pc, {})
                    per_pc[seen + max(0, offset)] = (
                        in_ready + 1,
                        int(taken),
                    )
                    if len(per_pc) > 64:
                        for stale in [
                            key for key in per_pc if key < seen
                        ]:
                            del per_pc[stale]
                continue
            else:  # K_STORE: private buffer only; never commits
                rs2 = body.rs2[j]
                in_ready = max(in_ready, ready.get(rs2, 0))
                addr = values.get(rs1, 0) + body.imm[j]
                store_buffer[addr] = (in_ready + 1, values.get(rs2, 0))
                continue
            rd = body.rd[j]
            if rd:
                values[rd] = value
                ready[rd] = complete
