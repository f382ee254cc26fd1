"""Functional simulator: executes a program and emits a dynamic trace.

This is the paper's "functional cache simulator [that] generates program
traces": it runs the program to completion (or an instruction limit) on
a :class:`~repro.memory.main_memory.MainMemory`, classifies every load
against a :class:`~repro.memory.hierarchy.FunctionalHierarchy`, and
records register and memory dependence edges so the slicer can walk
backward slices without re-executing anything.

Two engines produce bit-identical results (see DESIGN.md):

* the **interpreter** — the per-instruction dispatch loop in
  :func:`_interp`, which is also resumable so the tiered dispatcher
  can borrow it for cold blocks, block tails and mid-block entries; and
* the **tiered** engine (the default) — starts in the interpreter,
  counts block entries, and runs basic-block functions generated by
  :mod:`repro.engine.compiler` for the blocks that cross
  ``REPRO_TIER_THRESHOLD`` entries
  (:meth:`FunctionalSimulator._run_tiered`), so short runs skip
  compilation entirely while long runs converge to compiled speed.
  Threshold ``0`` compiles the whole program before the first
  instruction (eager compilation).

Selection: ``FunctionalSimulator(engine=...)`` > ``REPRO_ENGINE`` >
tiered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import assert_clean, verification_enabled
from repro.engine.compiler import (
    ENGINE_INTERP,
    ENGINE_TIERED,
    CompiledBlocks,
    compile_functional,
    TIER_SLICE as _TIER_SLICE,
    discover_blocks,
    register_engine_metrics,
    resolve_engine,
    tier_threshold,
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
from repro.engine.trace import Trace
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS
from repro.memory.hierarchy import FunctionalHierarchy, HierarchyConfig
from repro.memory.main_memory import MainMemory
from repro.obs import get_registry as obs_registry, get_tracer


class ExecutionLimitExceeded(Exception):
    """Raised when a program fails to halt within a hard safety limit."""


@dataclass
class FunctionalResult:
    """Output of one functional simulation run.

    Attributes:
        trace: the dynamic trace (``None`` if tracing was disabled).
        instructions: dynamic instructions executed.
        traced_instructions: instructions recorded in the trace.
        halted: True if the program executed ``halt``; False if it was
            stopped by ``max_instructions``.
        loads / stores / branches: dynamic counts.
        l1_misses / l2_misses: load+store misses seen by the hierarchy.
        registers: final architectural register values.
        memory: final memory state.
    """

    trace: Optional[Trace]
    instructions: int
    traced_instructions: int
    halted: bool
    loads: int
    stores: int
    branches: int
    l1_misses: int
    l2_misses: int
    registers: List[int]
    memory: MainMemory
    load_level_counts: Dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dict (full fidelity).

        The trace is packed through :meth:`Trace.to_dict`; the sparse
        final memory image is stored as sorted ``[addr, value]`` pairs.
        Used by the harness artifact cache so warm sweeps skip the
        functional simulation entirely.
        """
        return {
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "instructions": self.instructions,
            "traced_instructions": self.traced_instructions,
            "halted": self.halted,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "registers": list(self.registers),
            "memory": sorted(self.memory.snapshot().items()),
            "load_level_counts": {
                str(level): count
                for level, count in sorted(self.load_level_counts.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionalResult":
        """Rebuild from :meth:`to_dict` output."""
        memory = MainMemory()
        memory.restore({int(addr): int(value) for addr, value in data["memory"]})
        trace_data = data["trace"]
        return cls(
            trace=Trace.from_dict(trace_data) if trace_data is not None else None,
            instructions=int(data["instructions"]),
            traced_instructions=int(data["traced_instructions"]),
            halted=bool(data["halted"]),
            loads=int(data["loads"]),
            stores=int(data["stores"]),
            branches=int(data["branches"]),
            l1_misses=int(data["l1_misses"]),
            l2_misses=int(data["l2_misses"]),
            registers=[int(r) for r in data["registers"]],
            memory=memory,
            load_level_counts={
                int(level): int(count)
                for level, count in data["load_level_counts"].items()
            },
        )


class _FuncState:
    """Mutable run state shared between the interpreter and dispatcher.

    The tiered dispatcher hands off to :func:`_interp` (and back) at
    block-table misses, computed-jump entries, and the final
    instructions before the limit; packaging the architectural and
    bookkeeping state in one object makes those hand-offs exact.
    """

    __slots__ = (
        "pc",
        "executed",
        "loads",
        "stores",
        "branches",
        "halted",
        "regs",
        "last_writer",
        "last_store",
        "load_level_counts",
        "mem_load",
        "mem_store",
        "hier_access",
        "trace_append",
    )

    def __init__(self) -> None:
        self.pc = 0
        self.executed = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.halted = False


def _interp(
    decoded: DecodedProgram,
    st: _FuncState,
    limit: int,
    stop_pcs: Optional[dict] = None,
    entry_counts: Optional[Dict[int, int]] = None,
) -> None:
    """Interpret from ``st`` until halt, ``limit`` instructions, or a
    PC in ``stop_pcs`` (checked before executing — callers enter with
    ``st.pc`` outside the set).

    With ``entry_counts``, every control-flow transfer target is
    counted (``{next_pc: entries}``); the tiered engine scans the
    counts for block leaders worth compiling.
    """
    kind = decoded.kind
    rd_arr = decoded.rd
    rs1_arr = decoded.rs1
    rs2_arr = decoded.rs2
    imm_arr = decoded.imm
    target_arr = decoded.target
    alu_arr = decoded.alu
    branch_arr = decoded.branch

    regs = st.regs
    last_writer = st.last_writer
    last_store = st.last_store
    load_level_counts = st.load_level_counts
    mem_load = st.mem_load
    mem_store = st.mem_store
    hier_access = st.hier_access
    trace_append = st.trace_append
    tracing = trace_append is not None
    caching = hier_access is not None

    counting = entry_counts is not None

    pc = st.pc
    executed = st.executed
    loads = st.loads
    stores = st.stores
    branches = st.branches
    halted = False

    while executed < limit:
        if stop_pcs is not None and pc in stop_pcs:
            break
        k = kind[pc]
        executed += 1
        next_pc = pc + 1

        if k == K_ALU_R:
            rs1 = rs1_arr[pc]
            rs2 = rs2_arr[pc]
            value = alu_arr[pc](regs[rs1], regs[rs2])
            rd = rd_arr[pc]
            idx = -1
            if tracing:
                idx = trace_append(
                    pc, dep1=last_writer[rs1], dep2=last_writer[rs2]
                )
            if rd:
                regs[rd] = value
                last_writer[rd] = idx
        elif k == K_ALU_I:
            rs1 = rs1_arr[pc]
            value = alu_arr[pc](regs[rs1], imm_arr[pc])
            rd = rd_arr[pc]
            idx = -1
            if tracing:
                idx = trace_append(pc, dep1=last_writer[rs1])
            if rd:
                regs[rd] = value
                last_writer[rd] = idx
        elif k == K_LOAD:
            loads += 1
            rs1 = rs1_arr[pc]
            addr = regs[rs1] + imm_arr[pc]
            value = mem_load(addr)
            level = 0
            if caching:
                level = hier_access(addr)
                load_level_counts[level] += 1
            rd = rd_arr[pc]
            idx = -1
            if tracing:
                idx = trace_append(
                    pc,
                    addr=addr,
                    level=level,
                    dep1=last_writer[rs1],
                    memdep=last_store.get(addr, -1),
                )
            if rd:
                regs[rd] = value
                last_writer[rd] = idx
        elif k == K_STORE:
            stores += 1
            rs1 = rs1_arr[pc]
            rs2 = rs2_arr[pc]
            addr = regs[rs1] + imm_arr[pc]
            mem_store(addr, regs[rs2])
            if caching:
                hier_access(addr, True)
            if tracing:
                idx = trace_append(
                    pc,
                    addr=addr,
                    dep1=last_writer[rs1],
                    dep2=last_writer[rs2],
                )
                last_store[addr] = idx
            else:
                last_store[addr] = -1
        elif k == K_BRANCH:
            branches += 1
            rs1 = rs1_arr[pc]
            rs2 = rs2_arr[pc]
            taken = branch_arr[pc](regs[rs1], regs[rs2])
            if tracing:
                trace_append(
                    pc,
                    dep1=last_writer[rs1],
                    dep2=last_writer[rs2],
                    taken=taken,
                )
            if taken:
                next_pc = target_arr[pc]
            if counting:
                entry_counts[next_pc] = entry_counts.get(next_pc, 0) + 1
        elif k == K_JUMP:
            branches += 1
            if tracing:
                trace_append(pc, taken=True)
            next_pc = target_arr[pc]
            if counting:
                entry_counts[next_pc] = entry_counts.get(next_pc, 0) + 1
        elif k == K_JAL:
            branches += 1
            rd = rd_arr[pc]
            idx = -1
            if tracing:
                idx = trace_append(pc, taken=True)
            if rd:
                regs[rd] = pc + 1
                last_writer[rd] = idx
            next_pc = target_arr[pc]
            if counting:
                entry_counts[next_pc] = entry_counts.get(next_pc, 0) + 1
        elif k == K_JR:
            branches += 1
            rs1 = rs1_arr[pc]
            if tracing:
                trace_append(pc, dep1=last_writer[rs1], taken=True)
            next_pc = regs[rs1]
            if counting:
                entry_counts[next_pc] = entry_counts.get(next_pc, 0) + 1
        elif k == K_HALT:
            if tracing:
                trace_append(pc)
            halted = True
            break
        else:  # K_NOP
            if tracing:
                trace_append(pc)

        pc = next_pc

    st.pc = pc
    st.executed = executed
    st.loads = loads
    st.stores = stores
    st.branches = branches
    if halted:
        st.halted = True


class FunctionalSimulator:
    """Executes programs functionally with optional tracing and caches.

    Args:
        program: the linked program to run.
        hierarchy_config: cache geometry; if ``None`` no cache model is
            attached and all loads are recorded at level 0.
        engine: ``"tiered"`` / ``"interp"``; ``None`` defers to the
            ``REPRO_ENGINE`` environment variable (default tiered).

    Attributes:
        last_engine: the engine the most recent :meth:`run` used.
    """

    def __init__(
        self,
        program: Program,
        hierarchy_config: Optional[HierarchyConfig] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.program = program
        self.decoded = DecodedProgram(program)
        self.hierarchy_config = hierarchy_config
        self.engine = resolve_engine(engine)
        self.last_engine: Optional[str] = None
        self.last_tier: Optional[dict] = None
        self._compiled: Dict[tuple, Optional[CompiledBlocks]] = {}

    def _tiered_variant(
        self, tracing: bool, caching: bool, hot: Optional[tuple]
    ) -> Optional[CompiledBlocks]:
        """The compiled module for tiered runs, memoized per instance.

        ``hot`` is the sorted tuple of hot block-leader PCs the module
        covers, or ``None`` for the whole program (eager tiering).
        Under ``REPRO_VERIFY`` the module is translation-validated
        before it runs (the structural partition check runs in subset
        mode for a hot subset).
        """
        key = (tracing, caching, hot)
        if key not in self._compiled:
            compiled = compile_functional(
                self.decoded, tracing, caching, only_blocks=hot
            )
            if (
                compiled is not None
                and verification_enabled()
                and not compiled.validated
            ):
                from repro.analysis.transval import validate_functional

                result = validate_functional(
                    self.decoded,
                    compiled,
                    tracing=tracing,
                    caching=caching,
                    only_blocks=hot,
                )
                assert_clean(
                    result.diagnostics,
                    f"codegen validation (functional tiered, "
                    f"tracing={tracing}, caching={caching}, "
                    f"blocks={compiled.num_blocks})",
                )
                # The memoized compilation remembers it proved
                # clean, so later simulators of this process skip
                # re-validating it.
                compiled.validated = True
            self._compiled[key] = compiled
        return self._compiled[key]

    def validate_codegen(self, tracing: bool, caching: bool):
        """Translation-validate one compiled variant without running it.

        Compiles the (tracing, caching) variant and returns the
        :class:`repro.analysis.transval.TransvalResult` of checking it
        against the interpreter semantics.  Static: no instruction is
        executed.  Used by ``repro verify-codegen`` and the fuzz
        oracle's ``codegen_transval`` family.
        """
        from repro.analysis.transval import validate_functional

        compiled = compile_functional(self.decoded, tracing, caching)
        return validate_functional(
            self.decoded, compiled, tracing=tracing, caching=caching
        )

    def run(
        self,
        max_instructions: int = 50_000_000,
        collect_trace: bool = True,
        strict_limit: bool = False,
    ) -> FunctionalResult:
        """Run the program to ``halt`` or ``max_instructions``.

        Args:
            max_instructions: stop after this many dynamic instructions.
            collect_trace: record a :class:`Trace` of the run.
            strict_limit: if True, hitting ``max_instructions`` raises
                :class:`ExecutionLimitExceeded` instead of returning.
        """
        memory = MainMemory(self.program.data)
        hierarchy = (
            FunctionalHierarchy(self.hierarchy_config)
            if self.hierarchy_config is not None
            else None
        )
        trace = (
            Trace(capacity=min(max_instructions, 1 << 18))
            if collect_trace
            else None
        )

        st = _FuncState()
        st.regs = [0] * NUM_REGS
        st.last_writer = [-1] * NUM_REGS
        st.last_store = {}
        st.load_level_counts = {1: 0, 2: 0, 3: 0}
        st.mem_load = memory.load
        st.mem_store = memory.store
        st.hier_access = hierarchy.access_fast if hierarchy is not None else None
        st.trace_append = trace.append if trace is not None else None

        register_engine_metrics()
        if self.engine == ENGINE_TIERED:
            self.last_engine = ENGINE_TIERED
            self._run_tiered(st, max_instructions, memory, trace)
        else:
            self.last_engine = ENGINE_INTERP
            _interp(self.decoded, st, max_instructions)

        if not st.halted and strict_limit:
            raise ExecutionLimitExceeded(
                f"{self.program.name}: no halt within {max_instructions} "
                "instructions"
            )
        # The trace's parallel numpy arrays materialize lazily on first
        # column read: analysis pays the conversion, not the simulator.
        result = FunctionalResult(
            trace=trace,
            instructions=st.executed,
            traced_instructions=len(trace) if trace is not None else 0,
            halted=st.halted,
            loads=st.loads,
            stores=st.stores,
            branches=st.branches,
            l1_misses=hierarchy.l1.misses if hierarchy is not None else 0,
            l2_misses=hierarchy.l2.misses if hierarchy is not None else 0,
            registers=st.regs,
            memory=memory,
            load_level_counts=st.load_level_counts,
        )
        registry = obs_registry()
        registry.counter("functional.runs").inc()
        registry.counter("functional.instructions").inc(result.instructions)
        registry.counter("functional.loads").inc(result.loads)
        registry.counter("functional.stores").inc(result.stores)
        registry.counter("functional.branches").inc(result.branches)
        registry.counter("functional.l1.misses").inc(result.l1_misses)
        registry.counter("functional.l2.misses").inc(result.l2_misses)
        if hierarchy is not None:
            hierarchy.l1.publish_metrics(registry, "functional.cache.l1")
            hierarchy.l2.publish_metrics(registry, "functional.cache.l2")
        return result

    def _run_tiered(
        self,
        st: _FuncState,
        limit: int,
        memory: MainMemory,
        trace: Optional[Trace],
    ) -> None:
        """Interpret first; compile blocks once they prove hot.

        Starts in the resumable interpreter with block-entry counting
        on.  Every ``_TIER_SLICE`` instructions the counts are scanned
        and all block leaders past :func:`tier_threshold` entries are
        compiled in one batch (the module always covers the whole hot
        set, so earlier hot blocks recompile together with the new
        ones and keep dispatching through a single table).  The
        dispatcher runs whole blocks while at least ``max_len``
        instructions of budget remain (a block never executes
        partially, so the limit is respected) and hands cold leaders
        and computed-jump entries that land mid-block to the
        interpreter; dispatch misses on cold leaders keep counting so
        late-blooming blocks still tier up.  Static per-block
        load/store/branch counts fold in from block execution counts.

        Threshold ``0`` makes every leader hot before the first
        instruction, so the first scan compiles the whole-program
        module.  At the default threshold short runs never pay for
        codegen; long runs converge to compiled speed.  Results are
        bit-identical to the interpreter.
        """
        decoded = self.decoded
        tracing = trace is not None
        caching = st.hier_access is not None
        threshold = tier_threshold()
        eager = threshold == 0
        leaders = frozenset(start for start, _end in discover_blocks(decoded))
        # Eager tiering: every leader starts hot at zero entries.
        entry_counts: Dict[int, int] = (
            dict.fromkeys(leaders, 0) if eager else {}
        )
        attempted: set = set()
        rejected: set = set()
        tier_ups = 0

        ctx = {
            "mem_load": st.mem_load,
            "mem_store": st.mem_store,
            "words": memory.raw_words(),
            "hier_access": st.hier_access,
            "llc": st.load_level_counts,
            "trace_buf": trace.raw_buffer() if trace is not None else None,
            "last_store": st.last_store,
        }
        compiled: Optional[CompiledBlocks] = None
        table: dict = {}
        table_get = table.get
        counts: List[int] = []
        safe = -1
        next_scan = 0 if eager else _TIER_SLICE

        while not st.halted and st.executed < limit:
            if compiled is not None:
                regs = st.regs
                lw = st.last_writer
                pc = st.pc
                executed = st.executed
                while executed <= safe:
                    entry = table_get(pc)
                    if entry is None:
                        # Cold (or mid-block) entry from compiled code:
                        # count it and let the interpreter take over.
                        if pc in leaders:
                            entry_counts[pc] = entry_counts.get(pc, 0) + 1
                        break
                    fn, length, index = entry
                    pc = fn(regs, lw)
                    executed += length
                    counts[index] += 1
                    if pc == -1:
                        st.halted = True
                        break
                st.pc = pc
                st.executed = executed
                if st.halted:
                    break
                if executed > safe:
                    # Not enough budget left for another whole block:
                    # the plain interpreter finishes the run exactly.
                    _interp(decoded, st, limit)
                    break

            if st.executed >= next_scan:
                next_scan = st.executed + _TIER_SLICE
                fresh = [
                    p
                    for p, c in entry_counts.items()
                    if c >= threshold
                    and p in leaders
                    and p not in attempted
                    and p not in rejected
                ]
                if fresh:
                    hot = tuple(sorted(attempted.union(fresh)))
                    with get_tracer().span(
                        "tier_up",
                        program=self.program.name,
                        blocks=len(hot),
                    ):
                        new = self._tiered_variant(
                            tracing, caching, None if eager else hot
                        )
                    if new is None:
                        # Subset failed to compile; never retry it.
                        rejected.update(fresh)
                    else:
                        if compiled is not None:
                            compiled.fold_counts(counts, st)
                        attempted.update(fresh)
                        tier_ups += 1
                        compiled = new
                        table = compiled.bind(ctx)
                        table_get = table.get
                        counts = [0] * compiled.num_blocks
                        safe = limit - compiled.max_len
                        continue

            end = min(st.executed + _TIER_SLICE, limit)
            _interp(
                decoded,
                st,
                end,
                stop_pcs=table if compiled is not None else None,
                entry_counts=entry_counts,
            )

        if compiled is not None:
            compiled.fold_counts(counts, st)
        interp_blocks = sum(
            1 for p in entry_counts if p in leaders and p not in attempted
        )
        compiled_blocks = compiled.num_blocks if compiled is not None else 0
        registry = obs_registry()
        registry.counter("engine.tier.compiled_blocks").inc(compiled_blocks)
        registry.counter("engine.tier.interp_blocks").inc(interp_blocks)
        self.last_tier = {
            "tier_ups": tier_ups,
            "compiled_blocks": compiled_blocks,
            "interp_blocks": interp_blocks,
            "hot": tuple(sorted(attempted)),
        }


def run_program(
    program: Program,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_instructions: int = 50_000_000,
    collect_trace: bool = True,
    engine: Optional[str] = None,
) -> FunctionalResult:
    """One-shot convenience wrapper around :class:`FunctionalSimulator`."""
    sim = FunctionalSimulator(program, hierarchy_config, engine=engine)
    return sim.run(
        max_instructions=max_instructions, collect_trace=collect_trace
    )
