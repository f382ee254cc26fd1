"""Trace-driven timing simulator with SMT pre-execution support.

The simulator executes the program functionally (correct path, program
order) while computing a cycle-level timing model alongside:

* **Sequencing**: the main thread fetches ``bw_seq`` instructions per
  cycle, minus slots stolen by p-thread injection bursts.  This shared
  sequencing bandwidth is the paper's overhead mechanism, and the
  validation experiments confirm it is the dominant cost.
* **Window**: at most ``window`` instructions in flight; fetch stalls
  until the instruction ``window`` back has retired.
* **Dataflow issue**: each instruction starts when its operands are
  ready and it has been dispatched; completion adds its latency (loads
  go through the timed memory hierarchy with MSHRs and bus occupancy).
* **Control**: a hybrid predictor decides which dynamic branches
  redirect fetch; mispredictions restart fetch after resolution plus a
  front-end refill penalty.  Wrong-path instructions are not executed
  (the paper observes wrong-path p-thread launches do not measurably
  change overhead; see DESIGN.md).
* **P-threads**: a dynamic p-thread launches when the main thread
  dispatches its trigger, occupies one of the extra thread contexts,
  and is injected in bursts (8 instructions every 8 cycles by default).
  Bodies execute with seed values captured at the trigger — value
  availability follows the producing main-thread instruction's
  completion, exactly like a physical-register handoff.  Body stores
  forward through a private store buffer and never commit.  Body loads
  prefetch into the L2 only.

Two engines produce bit-identical
:class:`~repro.timing.stats.SimStats` (see DESIGN.md): the resumable
interpreter in :meth:`TimingSimulator._interp`, and the tiered engine,
which compiles the whole program into basic-block functions from
:mod:`repro.engine.compiler` before the first instruction and runs
them through :meth:`TimingSimulator._run_tiered`.  The dispatcher
leans on the interpreter for computed-jump entries that land
mid-block, for the instructions around schedule region boundaries and
the run limit (which are dynamic instruction counts, not PCs, so
compiled blocks cannot observe them), and for programs the compiler
refuses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import assert_clean, verification_enabled
from repro.engine.compiler import (
    ENGINE_INTERP,
    ENGINE_TIERED,
    CompiledBlocks,
    compile_timing,
    register_engine_metrics,
    resolve_engine,
)
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
from repro.isa.opcodes import WORD_SIZE, Format
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS
from repro.memory.hierarchy import HierarchyConfig, TimedHierarchy
from repro.memory.main_memory import MainMemory
from repro.obs import get_registry as obs_registry
from repro.pthreads.pthread import StaticPThread
from repro.timing.config import BASELINE, MachineConfig, SimMode
from repro.timing.stats import SimStats

#: Activation schedule: (start_instruction, end_instruction, p-threads).
Schedule = List[Tuple[int, int, List[StaticPThread]]]


def _store_queue_put(
    queue: Dict[int, Tuple[int, int]],
    addr: int,
    entry: Tuple[int, int],
    limit: int = 64,
) -> None:
    """Insert ``addr`` into the bounded store queue at MRU position.

    Python dicts preserve insertion order, so eviction pops the oldest
    key; re-storing an existing address must delete-and-reinsert to
    refresh its recency, otherwise a hot address keeps its stale
    insertion slot and is evicted while colder entries survive.
    Compiled blocks inline these exact operations per store; the
    differential equivalence suite pins the two together.
    """
    if addr in queue:
        del queue[addr]
    queue[addr] = entry
    if len(queue) > limit:
        del queue[next(iter(queue))]


class _DecodedBody:
    """Pre-decoded p-thread body for fast repeated execution.

    Registers are renamed to dense slots (slot 0 is the zero register),
    so a launch keeps values and ready times in two short lists seeded
    from ``seeds``.  Each op is one tuple ``(kind, rd, rs1, rs2, imm,
    fn, latency, floor, pc)``: ``fn`` is the ALU function, or the
    outcome predicate of a terminal branch, whose ``imm`` is instead
    how many instances past the next one its fetch hint resolves.
    ``floor`` is the op's injection cycle offset plus one: no operand
    is ready before the cycle after its burst is injected.
    """

    __slots__ = ("trigger", "size", "ops", "slots", "seeds", "bursts", "busy_cycles")

    def __init__(self, pthread: StaticPThread, machine: MachineConfig) -> None:
        body = pthread.body
        n = body.size
        self.trigger = pthread.trigger_pc
        self.size = n
        slot_of: Dict[int, int] = {0: 0}

        def slot(reg: Optional[int]) -> int:
            if reg is None:
                return 0
            return slot_of.setdefault(reg, len(slot_of))

        #: (slot, architectural register) per seeded live-in.
        self.seeds: List[Tuple[int, int]] = []
        for reg in body.live_ins:
            index = slot(reg)
            if reg < NUM_REGS:  # a virtual register has no seed: reads zero
                self.seeds.append((index, reg))
        # Injection: ``burst`` instructions every ``period`` cycles.
        burst, period = machine.pthread_burst, machine.pthread_burst_period
        self.ops: List[tuple] = []
        for j, inst in enumerate(body.instructions):
            info = inst.info
            fn = info.alu
            imm = inst.imm
            if info.fmt is Format.R:
                kind = K_ALU_R
            elif info.fmt is Format.I:
                kind = K_ALU_I
            elif info.fmt is Format.LOAD:
                kind = K_LOAD
            elif info.fmt is Format.BRANCH:
                # Terminal branch of a branch-pre-execution body: its
                # early outcome is posted as a fetch hint for the
                # instance ``instances_ahead`` trigger iterations from
                # now (minus one when the trigger sits after the branch
                # in loop order, because that instance already ran).
                kind = K_BRANCH
                fn = info.branch
                ahead = pthread.instances_ahead
                imm = max(0, ahead - 1 if pthread.trigger_pc > inst.pc else ahead)
            else:  # store
                kind = K_STORE
            self.ops.append(
                (
                    kind,
                    slot(inst.rd),
                    slot(inst.rs1),
                    slot(inst.rs2),
                    imm,
                    fn,
                    info.latency,
                    (j // burst) * period + 1,
                    inst.pc,
                )
            )
        self.slots = len(slot_of)
        #: (cycle offset, instructions) per injection burst.
        self.bursts: List[Tuple[int, int]] = [
            (first // burst * period, min(burst, n - first))
            for first in range(0, n, burst)
        ]
        # A context stays busy through its last burst's cycle.
        self.busy_cycles = (self.bursts[-1][0] if self.bursts else 0) + 1


def _normalized(
    pthreads: Optional[Sequence[StaticPThread]],
    schedule: Optional[Schedule],
) -> Schedule:
    """The schedule a run follows: a p-thread list is one region that
    spans the whole run."""
    if schedule is None:
        schedule = [(0, 1 << 62, list(pthreads or []))]
    return [(start, end, list(pts)) for start, end, pts in schedule]


def schedule_key(
    pthreads: Optional[Sequence[StaticPThread]] = None,
    schedule: Optional[Schedule] = None,
) -> tuple:
    """What a run reads of its p-threads, as a hashable value.

    Takes the p-threads the way :class:`TimingSimulator` does.  Per
    region of the normalized schedule the key holds ``(start, end)``,
    then per p-thread in list order its trigger PC, ``instances_ahead``
    and each body instruction's ``(op, rd, rs1, rs2, imm, pc)``: all
    that :class:`_DecodedBody` and the launch function of
    :meth:`TimingSimulator._launcher` read.  Predictions, merge
    components, the unoptimized body and the target load PCs are never
    read, so p-threads that differ only there key equal, and a p-thread
    list keys equal to its one-region schedule.  Runs of one program,
    hierarchy, machine, mode and instruction cap whose keys are equal
    produce equal :class:`SimStats`.
    """
    return tuple(
        (
            start,
            end,
            tuple(
                (
                    pthread.trigger_pc,
                    pthread.instances_ahead,
                    tuple(
                        (inst.op, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.pc)
                        for inst in pthread.body.instructions
                    ),
                )
                for pthread in pts
            ),
        )
        for start, end, pts in _normalized(pthreads, schedule)
    )


class _TimingState:
    """Mutable run state shared between interpreter and dispatcher.

    The tiered dispatcher and the resumable interpreter hand
    execution back and forth (region and run-limit edges,
    computed-jump entries); everything either side reads or writes
    lives here so the hand-off is exact.
    """

    __slots__ = (
        "pc",
        "executed",
        "fetch_cycle",
        "cap_used",
        "last_retire",
        "halted",
        "region_index",
        "region_end",
        "triggers",
        "trig",
        "regs",
        "reg_ready",
        "retire_ring",
        "stolen",
        "store_queue",
        "contexts",
        "branch_hints",
        "branch_counts",
        "hinted_pcs",
        "launching",
        "launch",
        "mode",
        "stats",
        "predictor",
        "prefetcher",
        "hierarchy",
        "memory",
        "mem_load",
        "mem_store",
        "miss_exposure",
        "tallies",
    )


class TimingSimulator:
    """Execution-driven timing model of the SMT pre-execution machine.

    Args:
        program: the program to run.
        hierarchy_config: memory-system geometry and latency.
        machine: core parameters.
        pthreads: static p-threads active for the whole run (mutually
            exclusive with ``schedule``).
        schedule: region-based p-thread activation for granularity
            experiments.
        engine: ``"tiered"`` (the default, also for ``None``) or
            ``"interp"``, the reference interpreter.

    Attributes:
        last_registers: committed register file after the most recent
            :meth:`run` (empty before the first run).
        last_memory: committed :class:`MainMemory` after the most
            recent :meth:`run` (``None`` before the first run).
            P-thread stores stay in the speculative store buffer and
            never commit, so in every mode this state must equal the
            functional simulator's — the differential oracle checks it.
        last_engine: the engine the most recent :meth:`run` used.
    """

    def __init__(
        self,
        program: Program,
        hierarchy_config: HierarchyConfig,
        machine: Optional[MachineConfig] = None,
        pthreads: Optional[Sequence[StaticPThread]] = None,
        schedule: Optional[Schedule] = None,
        engine: Optional[str] = None,
    ) -> None:
        if pthreads is not None and schedule is not None:
            raise ValueError("pass either pthreads or schedule, not both")
        self.program = program
        self.decoded = DecodedProgram(program)
        self.hierarchy_config = hierarchy_config
        self.machine = machine or MachineConfig()
        self.schedule: Schedule = _normalized(pthreads, schedule)
        self._decoded_bodies: Dict[int, _DecodedBody] = {}
        for _, _, pts in self.schedule:
            for pthread in pts:
                if id(pthread) not in self._decoded_bodies:
                    self._decoded_bodies[id(pthread)] = _DecodedBody(
                        pthread, self.machine
                    )
        self.engine = resolve_engine(engine)
        self.last_engine: Optional[str] = None
        self.last_tier: Optional[dict] = None
        self.last_registers: List[int] = []
        self.last_memory: Optional[MainMemory] = None
        self._compiled: Dict[tuple, Optional[CompiledBlocks]] = {}
        # Static over all regions: the PCs where launches can ever
        # trigger (compiled blocks embed the launch check there) and
        # the branch PCs that hints can ever target.
        self._trigger_union = frozenset(
            pt.trigger_pc for _, _, pts in self.schedule for pt in pts
        )
        self._hinted_pcs = frozenset(
            pt.body.instructions[-1].pc
            for _, _, pts in self.schedule
            for pt in pts
            if pt.body.targets_branch
        )
        # Machine parameters every timing compilation of this
        # simulator shares (codegen and translation validation).
        machine = self.machine
        self._codegen_args = dict(
            window=machine.window,
            bw_seq=machine.bw_seq,
            dispatch_latency=machine.dispatch_latency,
            mispredict_penalty=machine.mispredict_penalty,
            forward_latency=machine.store_forward_latency,
            trigger_pcs=self._trigger_union,
            hinted_pcs=self._hinted_pcs,
        )

    # ------------------------------------------------------------------

    def _triggers_for(
        self, region: Tuple[int, int, List[StaticPThread]]
    ) -> Dict[int, List[_DecodedBody]]:
        """The region's p-thread bodies, by trigger PC, in list order."""
        triggers: Dict[int, List[_DecodedBody]] = {}
        for pthread in region[2]:
            triggers.setdefault(pthread.trigger_pc, []).append(
                self._decoded_bodies[id(pthread)]
            )
        return triggers

    def _tiered_variant(
        self, launching: bool, stealing: bool, prefetching: bool
    ) -> Optional[CompiledBlocks]:
        """The whole-program module for tiered runs, memoized per instance.

        Under ``REPRO_VERIFY`` the module is translation-validated
        before it runs.
        """
        key = (launching, stealing, prefetching)
        if key not in self._compiled:
            shape = dict(
                launching=launching, stealing=stealing, prefetching=prefetching
            )
            compiled = compile_timing(self.decoded, **self._codegen_args, **shape)
            if (
                compiled is not None
                and verification_enabled()
                and not compiled.validated
            ):
                from repro.analysis.transval import (
                    TimingParams,
                    validate_timing,
                )

                result = validate_timing(
                    self.decoded,
                    compiled,
                    TimingParams(**self._codegen_args, **shape),
                )
                assert_clean(
                    result.diagnostics,
                    f"codegen validation (timing tiered, "
                    f"launching={launching}, stealing={stealing}, "
                    f"prefetching={prefetching}, "
                    f"blocks={compiled.num_blocks})",
                )
                # The memoized compilation remembers it proved
                # clean, so later simulators of this process skip
                # re-validating it.
                compiled.validated = True
            self._compiled[key] = compiled
        return self._compiled[key]

    def validate_codegen(
        self, launching: bool, stealing: bool, prefetching: bool
    ):
        """Translation-validate one compiled variant without running it.

        Compiles the (launching, stealing, prefetching) mode shape with
        this simulator's machine parameters and trigger/hint sets and
        returns the :class:`repro.analysis.transval.TransvalResult` of
        checking it against the timing-loop semantics.  Static: no
        cycle is simulated.  Used by ``repro verify-codegen`` and the
        fuzz oracle's ``codegen_transval`` family.
        """
        from repro.analysis.transval import TimingParams, validate_timing

        shape = dict(
            launching=launching, stealing=stealing, prefetching=prefetching
        )
        compiled = compile_timing(self.decoded, **self._codegen_args, **shape)
        return validate_timing(
            self.decoded, compiled, TimingParams(**self._codegen_args, **shape)
        )

    def run(
        self,
        mode: SimMode = BASELINE,
        max_instructions: int = 50_000_000,
    ) -> SimStats:
        """Simulate to ``halt`` (or an instruction cap); returns stats."""
        machine = self.machine
        memory = MainMemory(self.program.data)
        hierarchy = TimedHierarchy(
            self.hierarchy_config, perfect_l2=mode.perfect_l2
        )
        stats = SimStats(mode=mode.name)
        prefetcher = None
        if machine.stride_prefetch:
            from repro.memory.prefetcher import StridePrefetcher

            prefetcher = StridePrefetcher(degree=machine.stride_degree)

        st = _TimingState()
        st.pc = 0
        st.executed = 0
        st.fetch_cycle = 0
        st.cap_used = 0
        st.last_retire = 0
        st.halted = False
        st.regs = [0] * NUM_REGS
        st.reg_ready = [0] * NUM_REGS
        st.retire_ring = [0] * machine.window
        st.stolen = {}
        st.store_queue = {}
        st.contexts = [0] * machine.pthread_contexts
        # Branch hints from branch-pre-execution p-threads, tagged with
        # the dynamic branch instance they resolve:
        # branch pc -> {instance number -> (outcome ready cycle, outcome)}.
        st.branch_hints = {}
        # Dynamic instance counters for hinted branch PCs.
        st.branch_counts = {}
        st.hinted_pcs = self._hinted_pcs
        st.launching = mode.launch and any(pts for _, _, pts in self.schedule)
        st.mode = mode
        st.stats = stats
        st.predictor = HybridPredictor()
        st.prefetcher = prefetcher
        st.hierarchy = hierarchy
        st.memory = memory
        st.mem_load = memory.load
        st.mem_store = memory.store
        st.miss_exposure = stats.miss_exposure
        st.region_index = 0
        region = self.schedule[0]
        st.triggers = self._triggers_for(region) if st.launching else {}
        st.region_end = region[1]
        st.trig = [st.triggers]
        # Rare-event tallies for compiled blocks (the interpreter
        # writes `stats` directly): [l1 misses, mispredictions,
        # mispredicts covered by hints].
        st.tallies = [0, 0, 0]
        st.launch = self._launcher(st)

        register_engine_metrics()
        if self.engine == ENGINE_TIERED:
            self.last_engine = ENGINE_TIERED
            self._run_tiered(st, max_instructions, prefetcher is not None)
        else:
            self.last_engine = ENGINE_INTERP
            self._interp(st, max_instructions)

        stats.l1_misses += st.tallies[0]
        stats.mispredictions += st.tallies[1]
        stats.mispredicts_covered += st.tallies[2]
        stats.instructions = st.executed
        stats.cycles = max(st.last_retire, st.fetch_cycle)
        stats.misses_fully_covered = hierarchy.full_covered
        stats.misses_partially_covered = hierarchy.partial_covered
        stats.partial_covered_cycles = hierarchy.partial_covered_cycles
        stats.prefetches_evicted = hierarchy.evicted_prefetches
        stats.prefetches_unclaimed = hierarchy.unclaimed_prefetches()
        stats.pthread_l2_misses = hierarchy.pt_l2_misses
        # This run's main-thread misses plus the ones coverage turned
        # into hits.  Misses caused by p-thread fills evicting
        # main-thread lines count too, so this is not the unassisted
        # program's count (SimStats.l2_misses).
        stats.l2_misses = (
            hierarchy.mt_l2_misses
            + hierarchy.full_covered
            + hierarchy.partial_covered
        )
        self.last_registers = list(st.regs)
        self.last_memory = memory
        self._publish_metrics(stats, hierarchy)
        return stats

    @staticmethod
    def _publish_metrics(stats: SimStats, hierarchy: TimedHierarchy) -> None:
        """Fold this run's totals into the global metrics registry.

        Published once per run (never from the hot loop); names are part
        of the stable catalog in :mod:`repro.obs.export`.
        """
        registry = obs_registry()
        registry.counter("timing.runs").inc()
        registry.counter("timing.instructions").inc(stats.instructions)
        registry.counter("timing.cycles").inc(stats.cycles)
        registry.counter("timing.l1.misses").inc(stats.l1_misses)
        registry.counter("timing.l2.misses").inc(stats.l2_misses)
        registry.counter("timing.l2.covered_full").inc(stats.misses_fully_covered)
        registry.counter("timing.l2.covered_partial").inc(
            stats.misses_partially_covered
        )
        registry.counter("timing.branch.mispredictions").inc(stats.mispredictions)
        registry.counter("timing.branch.mispredicts_covered").inc(
            stats.mispredicts_covered
        )
        registry.counter("timing.pthread.attempts").inc(
            stats.pthread_launches + stats.pthread_drops
        )
        registry.counter("timing.pthread.launches").inc(stats.pthread_launches)
        registry.counter("timing.pthread.drops").inc(stats.pthread_drops)
        registry.counter("timing.pthread.instructions").inc(
            stats.pthread_instructions
        )
        registry.counter("timing.pthread.l2_misses").inc(stats.pthread_l2_misses)
        hierarchy.publish_metrics(registry)

    # ------------------------------------------------------------------

    def _advance_region(self, st: _TimingState, executed: int) -> None:
        """Advance (or refresh) the active schedule region."""
        schedule = self.schedule
        region_index = st.region_index
        while (
            region_index + 1 < len(schedule)
            and executed >= schedule[region_index][1]
        ):
            region_index += 1
        region = schedule[region_index]
        st.region_index = region_index
        st.triggers = self._triggers_for(region)
        st.region_end = region[1]
        st.trig[0] = st.triggers

    def _interp(
        self,
        st: _TimingState,
        limit: int,
        stop_pcs: Optional[dict] = None,
    ) -> None:
        """Interpret from ``st`` until halt, ``limit`` instructions, or
        a PC in ``stop_pcs`` (checked before executing — callers enter
        with ``st.pc`` outside the set).
        """
        machine = self.machine
        decoded = self.decoded
        kind = decoded.kind
        rd_arr = decoded.rd
        rs1_arr = decoded.rs1
        rs2_arr = decoded.rs2
        imm_arr = decoded.imm
        target_arr = decoded.target
        alu_arr = decoded.alu
        branch_arr = decoded.branch
        lat_arr = decoded.latency

        stats = st.stats
        hierarchy = st.hierarchy
        predictor = st.predictor
        prefetcher = st.prefetcher
        miss_exposure = st.miss_exposure

        bw = machine.bw_seq
        dispatch_latency = machine.dispatch_latency
        window = machine.window
        mispredict_penalty = machine.mispredict_penalty
        forward_latency = machine.store_forward_latency

        regs = st.regs
        reg_ready = st.reg_ready
        retire_ring = st.retire_ring
        stolen = st.stolen
        stolen_get = stolen.get
        store_queue = st.store_queue
        branch_hints = st.branch_hints
        branch_counts = st.branch_counts
        hinted_pcs = st.hinted_pcs
        launching = st.launching
        launch = st.launch
        trig = st.trig
        schedule = self.schedule

        mem_load = st.mem_load
        mem_store = st.mem_store
        mt_access = hierarchy.mt_access_fast
        pt_access = hierarchy.pt_access_fast
        predict = predictor.predict_and_update
        predict_indirect = predictor.predict_indirect

        pc = st.pc
        executed = st.executed
        fetch_cycle = st.fetch_cycle
        cap_used = st.cap_used
        last_retire = st.last_retire
        region_index = st.region_index
        region_end = st.region_end
        triggers = st.triggers
        halted = False

        while executed < limit:
            if stop_pcs is not None and pc in stop_pcs:
                break
            if launching and executed >= region_end:
                while (
                    region_index + 1 < len(schedule)
                    and executed >= schedule[region_index][1]
                ):
                    region_index += 1
                region = schedule[region_index]
                triggers = self._triggers_for(region)
                region_end = region[1]
                trig[0] = triggers

            k = kind[pc]
            executed += 1

            # ---- fetch: bandwidth (minus stolen slots) and window ----
            ring_slot = executed % window
            window_stall = retire_ring[ring_slot]
            if window_stall > fetch_cycle:
                fetch_cycle = window_stall
                cap_used = 0
            while cap_used >= bw - stolen_get(fetch_cycle, 0):
                fetch_cycle += 1
                cap_used = 0
            f = fetch_cycle
            cap_used += 1
            disp = f + dispatch_latency
            next_pc = pc + 1

            # ---- execute / time ----
            if k == K_ALU_R:
                rs1 = rs1_arr[pc]
                rs2 = rs2_arr[pc]
                value = alu_arr[pc](regs[rs1], regs[rs2])
                ready = reg_ready[rs1]
                r2 = reg_ready[rs2]
                if r2 > ready:
                    ready = r2
                if disp > ready:
                    ready = disp
                complete = ready + lat_arr[pc]
                rd = rd_arr[pc]
                if rd:
                    regs[rd] = value
                    reg_ready[rd] = complete
            elif k == K_ALU_I:
                rs1 = rs1_arr[pc]
                value = alu_arr[pc](regs[rs1], imm_arr[pc])
                ready = reg_ready[rs1]
                if disp > ready:
                    ready = disp
                complete = ready + lat_arr[pc]
                rd = rd_arr[pc]
                if rd:
                    regs[rd] = value
                    reg_ready[rd] = complete
            elif k == K_LOAD:
                stats.loads += 1
                rs1 = rs1_arr[pc]
                addr = regs[rs1] + imm_arr[pc]
                value = mem_load(addr)
                ready = reg_ready[rs1]
                if disp > ready:
                    ready = disp
                issue = ready + 1  # address generation
                forwarded = store_queue.get(addr)
                if forwarded is not None:
                    data_ready = forwarded[0]
                    complete = (
                        max(issue, data_ready) + forward_latency
                    )
                else:
                    level, complete = mt_access(addr, issue)
                    if level != 1:
                        stats.l1_misses += 1
                    if level == 3:
                        exposure = miss_exposure.get(pc)
                        if exposure is None:
                            exposure = [0, 0]
                            miss_exposure[pc] = exposure
                        exposure[0] += 1
                        exposed = complete - last_retire
                        if exposed > 0:
                            exposure[1] += exposed
                    if prefetcher is not None:
                        for target in prefetcher.observe(pc, addr):
                            pt_access(target, issue)
                rd = rd_arr[pc]
                if rd:
                    regs[rd] = value
                    reg_ready[rd] = complete
            elif k == K_STORE:
                stats.stores += 1
                rs1 = rs1_arr[pc]
                rs2 = rs2_arr[pc]
                addr = regs[rs1] + imm_arr[pc]
                mem_store(addr, regs[rs2])
                ready = reg_ready[rs1]
                if disp > ready:
                    ready = disp
                complete = ready + 1
                # Stores complete independent of the memory access (the
                # write drains in the background) but still probe the
                # hierarchy — count their L1 misses like load misses so
                # stats.l1_misses covers every access, matching the
                # functional model and the l2 <= l1 invariant.
                level, _ = mt_access(addr, complete, True)
                if level != 1:
                    stats.l1_misses += 1
                _store_queue_put(
                    store_queue,
                    addr,
                    (max(complete, reg_ready[rs2]), regs[rs2]),
                )
            elif k == K_BRANCH:
                stats.branches += 1
                rs1 = rs1_arr[pc]
                rs2 = rs2_arr[pc]
                taken = branch_arr[pc](regs[rs1], regs[rs2])
                ready = reg_ready[rs1]
                r2 = reg_ready[rs2]
                if r2 > ready:
                    ready = r2
                if disp > ready:
                    ready = disp
                complete = ready + 1
                target = target_arr[pc]
                if taken:
                    next_pc = target
                correct = predict(pc, taken, target)
                hint = None
                if pc in hinted_pcs:
                    instance = branch_counts.get(pc, 0)
                    branch_counts[pc] = instance + 1
                    per_pc = branch_hints.get(pc)
                    if per_pc is not None:
                        hint = per_pc.pop(instance, None)
                if not correct:
                    stats.mispredictions += 1
                    if (
                        hint is not None
                        and hint[0] <= f
                        and hint[1] == int(taken)
                    ):
                        # A p-thread resolved this branch before fetch:
                        # the front end follows the hint, no redirect.
                        stats.mispredicts_covered += 1
                    else:
                        fetch_cycle = complete + mispredict_penalty
                        cap_used = 0
            elif k == K_JUMP:
                stats.branches += 1
                complete = disp
                next_pc = target_arr[pc]
            elif k == K_JAL:
                stats.branches += 1
                complete = disp
                rd = rd_arr[pc]
                if rd:
                    regs[rd] = pc + 1
                    reg_ready[rd] = complete
                next_pc = target_arr[pc]
            elif k == K_JR:
                stats.branches += 1
                rs1 = rs1_arr[pc]
                ready = reg_ready[rs1]
                if disp > ready:
                    ready = disp
                complete = ready + 1
                next_pc = regs[rs1]
                correct = predict_indirect(pc, next_pc)
                if not correct:
                    stats.mispredictions += 1
                    fetch_cycle = complete + mispredict_penalty
                    cap_used = 0
            elif k == K_HALT:
                complete = disp
                last_retire = max(last_retire, complete)
                retire_ring[ring_slot] = last_retire
                halted = True
                break
            else:  # K_NOP
                complete = disp

            # ---- in-order retirement ----
            if complete < last_retire:
                complete_retire = last_retire
            else:
                complete_retire = complete
            last_retire = complete_retire
            retire_ring[ring_slot] = complete_retire

            # ---- p-thread launch at trigger dispatch ----
            if launching:
                waiting = triggers.get(pc)
                if waiting is not None:
                    launch(waiting, disp)
            # Periodically drop stale stolen-slot entries (in place:
            # the dict is closed over by compiled blocks and p-thread
            # launches, so it must never be rebound).
            if not executed & 0xFFFF and stolen:
                for cycle in [c for c in stolen if c < fetch_cycle]:
                    del stolen[cycle]

            pc = next_pc

        st.pc = pc
        st.executed = executed
        st.fetch_cycle = fetch_cycle
        st.cap_used = cap_used
        st.last_retire = last_retire
        st.region_index = region_index
        st.region_end = region_end
        st.triggers = triggers
        if halted:
            st.halted = True

    def _run_tiered(
        self, st: _TimingState, limit: int, prefetching: bool
    ) -> None:
        """Run compiled blocks of the whole program, compiled up front.

        One module per variant (launching, stealing, prefetching and
        the trigger set) is compiled before the first instruction.
        Compiled blocks cannot observe dynamic-instruction milestones
        mid-block, so the dispatcher only runs a block when at least
        ``max_len`` instructions remain before the next schedule region
        boundary and before the run limit; the interpreter carries
        execution across those edges and across computed-jump entries
        that land mid-block, and runs the whole program when the
        compiler refuses it.  Between hand-offs the run state lives in
        local variables, and ``st`` holds it while the interpreter runs.
        Static per-block load/store/branch counts fold in from block
        execution counts.  Cycle counts are bit-identical to the
        interpreter.
        """
        launching = st.launching
        compiled = self._tiered_variant(
            launching, launching and st.mode.steal, prefetching
        )
        if compiled is None:
            self._interp(st, limit)
            self.last_tier = {"compiled_blocks": 0}
            return

        hierarchy = st.hierarchy
        stolen = st.stolen
        regs = st.regs
        rdy = st.reg_ready
        table = compiled.bind(
            {
                "ring": st.retire_ring,
                "store_queue": st.store_queue,
                "predict": st.predictor.predict_and_update,
                "predict_ind": st.predictor.predict_indirect,
                "mt_access": hierarchy.mt_access_fast,
                "pt_access": hierarchy.pt_access_fast,
                "mem_load": st.mem_load,
                "mem_store": st.mem_store,
                "words": st.memory.raw_words(),
                "miss_exposure": st.miss_exposure,
                "tallies": st.tallies,
                "stolen": stolen,
                "trig": st.trig,
                "launch": st.launch,
                "branch_hints": st.branch_hints,
                "branch_counts": st.branch_counts,
                "observe": (
                    st.prefetcher.observe
                    if st.prefetcher is not None
                    else None
                ),
            }
        )
        table_get = table.get
        counts = [0] * compiled.num_blocks
        max_len = compiled.max_len
        last_region = len(self.schedule) - 1
        cleanup_mark = 0

        pc = st.pc
        executed = st.executed
        fetch_cycle = st.fetch_cycle
        cap_used = st.cap_used
        last_retire = st.last_retire
        halted = st.halted
        while not halted and executed < limit:
            if (
                launching
                and executed >= st.region_end
                and st.region_index < last_region
            ):
                self._advance_region(st, executed)
            cap = limit
            if (
                launching
                and st.region_index < last_region
                and st.region_end < cap
            ):
                cap = st.region_end
            # Blocks run while a whole one fits before the cap.
            floor = cap - max_len
            while executed <= floor:
                entry = table_get(pc)
                if entry is None:
                    break
                fn, _, index = entry
                pc, executed, fetch_cycle, cap_used, last_retire = fn(
                    executed, fetch_cycle, cap_used, last_retire, regs, rdy
                )
                counts[index] += 1
                if pc == -1:
                    halted = True
                    break
                # Periodic stale stolen-slot cleanup, mirroring the
                # interpreter's (cleanup timing is unobservable: fetch
                # cycles are monotonic).
                if executed - cleanup_mark >= 0x10000:
                    cleanup_mark = executed
                    if stolen:
                        for cycle in [c for c in stolen if c < fetch_cycle]:
                            del stolen[cycle]
            if halted:
                break
            st.pc = pc
            st.executed = executed
            st.fetch_cycle = fetch_cycle
            st.cap_used = cap_used
            st.last_retire = last_retire
            if executed > floor:
                # Approaching the region boundary or the run limit:
                # single-step across it exactly.
                self._interp(st, cap)
            else:
                # A computed jump landed mid-block: interpret up to the
                # next block leader.
                self._interp(st, limit, stop_pcs=table)
            pc = st.pc
            executed = st.executed
            fetch_cycle = st.fetch_cycle
            cap_used = st.cap_used
            last_retire = st.last_retire
            halted = st.halted
        st.pc = pc
        st.executed = executed
        st.fetch_cycle = fetch_cycle
        st.cap_used = cap_used
        st.last_retire = last_retire
        st.halted = halted

        compiled.fold_counts(counts, st.stats)
        obs_registry().counter("engine.tier.compiled_blocks").inc(
            compiled.num_blocks
        )
        self.last_tier = {"compiled_blocks": compiled.num_blocks}

    # ------------------------------------------------------------------

    def _launcher(
        self, st: _TimingState
    ) -> Callable[[List[_DecodedBody], int], None]:
        """The run's launch function: ``launch(waiting, launch_time)``
        launches each p-thread body of ``waiting`` at ``launch_time``.

        What a launch reads of the run is bound here, once per run.
        A body load reads an aligned word straight from the memory's
        dict, as compiled blocks do, and calls the checked
        :meth:`MainMemory.load` only for a misaligned address, which
        raises.  It consults the store buffer only once a body store has
        filled it, so a body without stores never does.
        """
        mode = st.mode
        steal = mode.steal
        execute = mode.execute
        prefetch = mode.prefetch
        contexts = st.contexts
        stats = st.stats
        launches_by_trigger = stats.launches_by_trigger
        drops_by_trigger = stats.drops_by_trigger
        stolen = st.stolen
        main_regs = st.regs
        main_ready = st.reg_ready
        branch_counts = st.branch_counts
        branch_hints = st.branch_hints
        forward_latency = self.machine.store_forward_latency
        mem_load = st.mem_load
        words_get = st.memory.raw_words().get
        # Prefetching loads fill the L2; the overhead-only modes time
        # them against the phantom lookup, which leaves no state.
        if prefetch:
            access = st.hierarchy.pt_access_fast
        else:
            access = st.hierarchy.phantom_access_fast

        def launch(waiting: List[_DecodedBody], launch_time: int) -> None:
            for body in waiting:
                trigger = body.trigger
                # Context allocation: drop the launch if none is free.
                for slot, busy_until in enumerate(contexts):
                    if busy_until <= launch_time:
                        break
                else:
                    stats.pthread_drops += 1
                    drops_by_trigger[trigger] = drops_by_trigger.get(trigger, 0) + 1
                    continue
                contexts[slot] = launch_time + body.busy_cycles
                stats.pthread_launches += 1
                launches_by_trigger[trigger] = (
                    launches_by_trigger.get(trigger, 0) + 1
                )
                stats.pthread_instructions += body.size

                if steal:
                    for offset, count in body.bursts:
                        cycle = launch_time + offset
                        stolen[cycle] = stolen.get(cycle, 0) + count
                if not execute:
                    continue

                # Seed the body's live-ins from the architectural state
                # at the trigger; availability follows the producer's
                # completion.
                values = [0] * body.slots
                ready = [0] * body.slots
                for index, reg in body.seeds:
                    values[index] = main_regs[reg]
                    ready[index] = main_ready[reg]

                store_buffer: Dict[int, Tuple[int, int]] = {}
                for kind, rd, rs1, rs2, imm, fn, latency, floor, pc in body.ops:
                    in_ready = ready[rs1]
                    floor += launch_time
                    if floor > in_ready:
                        in_ready = floor
                    if kind == K_ALU_I:
                        value = fn(values[rs1], imm)
                        complete = in_ready + latency
                    elif kind == K_ALU_R:
                        r2 = ready[rs2]
                        if r2 > in_ready:
                            in_ready = r2
                        value = fn(values[rs1], values[rs2])
                        complete = in_ready + latency
                    elif kind == K_LOAD:
                        addr = values[rs1] + imm
                        issue = in_ready + 1
                        buffered = store_buffer.get(addr) if store_buffer else None
                        if buffered is not None:
                            data_ready, value = buffered
                            if issue < data_ready:
                                issue = data_ready
                            complete = issue + forward_latency
                        else:
                            if addr % WORD_SIZE:
                                mem_load(addr)  # raises MemoryAlignmentError
                            value = words_get(addr, 0)
                            complete = access(addr, issue)[1]
                    elif kind == K_BRANCH:
                        # Terminal branch: post the outcome as a fetch
                        # hint tagged with the dynamic instance it
                        # resolves.
                        r2 = ready[rs2]
                        if r2 > in_ready:
                            in_ready = r2
                        taken = fn(values[rs1], values[rs2])
                        if prefetch:
                            seen = branch_counts.get(pc, 0)
                            per_pc = branch_hints.setdefault(pc, {})
                            per_pc[seen + imm] = (in_ready + 1, int(taken))
                            if len(per_pc) > 64:
                                for stale in [
                                    key for key in per_pc if key < seen
                                ]:
                                    del per_pc[stale]
                        continue
                    else:  # K_STORE: private buffer only; never commits
                        r2 = ready[rs2]
                        if r2 > in_ready:
                            in_ready = r2
                        store_buffer[values[rs1] + imm] = (
                            in_ready + 1,
                            values[rs2],
                        )
                        continue
                    if rd:
                        values[rd] = value
                        ready[rd] = complete

        return launch
