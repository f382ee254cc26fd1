"""Functional simulator: executes a program and emits a dynamic trace.

This is the paper's "functional cache simulator [that] generates program
traces": it runs the program to completion (or an instruction limit) on
a :class:`~repro.memory.main_memory.MainMemory`, classifies every load
against a :class:`~repro.memory.hierarchy.FunctionalHierarchy`, and
records register and memory dependence edges so the slicer can walk
backward slices without re-executing anything.

The simulator has one engine, the decode-dispatch loop in
:meth:`FunctionalSimulator.run`.  Each program is traced once and the
trace persisted, so a compiled engine saved only a few percent of a
cold pass and nothing on warm ones (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
from repro.obs import get_registry as obs_registry


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


class FunctionalSimulator:
    """Executes programs functionally with optional tracing and caches.

    Args:
        program: the linked program to run.
        hierarchy_config: cache geometry; if ``None`` no cache model is
            attached and all loads are recorded at level 0.
    """

    def __init__(
        self,
        program: Program,
        hierarchy_config: Optional[HierarchyConfig] = None,
    ) -> None:
        self.program = program
        self.decoded = DecodedProgram(program)
        self.hierarchy_config = hierarchy_config

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

        decoded = self.decoded
        kind = decoded.kind
        rd_arr = decoded.rd
        rs1_arr = decoded.rs1
        rs2_arr = decoded.rs2
        imm_arr = decoded.imm
        target_arr = decoded.target
        alu_arr = decoded.alu
        branch_arr = decoded.branch

        regs = [0] * NUM_REGS
        last_writer = [-1] * NUM_REGS
        last_store: Dict[int, int] = {}
        load_level_counts = {1: 0, 2: 0, 3: 0}
        mem_load = memory.load
        mem_store = memory.store
        hier_access = hierarchy.access_fast if hierarchy is not None else None
        # One positional record tuple per executed instruction, in
        # Trace.FIELDS order; a record's dynamic index is executed - 1.
        records: List[tuple] = []
        record = records.append
        tracing = collect_trace
        caching = hierarchy is not None

        pc = 0
        executed = 0
        loads = 0
        stores = 0
        branches = 0
        halted = False

        while executed < max_instructions:
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
                    record(
                        (pc, -1, 0, last_writer[rs1], last_writer[rs2], -1, False)
                    )
                    idx = executed - 1
                if rd:
                    regs[rd] = value
                    last_writer[rd] = idx
            elif k == K_ALU_I:
                rs1 = rs1_arr[pc]
                value = alu_arr[pc](regs[rs1], imm_arr[pc])
                rd = rd_arr[pc]
                idx = -1
                if tracing:
                    record((pc, -1, 0, last_writer[rs1], -1, -1, False))
                    idx = executed - 1
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
                    record(
                        (
                            pc,
                            addr,
                            level,
                            last_writer[rs1],
                            -1,
                            last_store.get(addr, -1),
                            False,
                        )
                    )
                    idx = executed - 1
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
                    record(
                        (pc, addr, 0, last_writer[rs1], last_writer[rs2], -1, False)
                    )
                    last_store[addr] = executed - 1
                else:
                    last_store[addr] = -1
            elif k == K_BRANCH:
                branches += 1
                rs1 = rs1_arr[pc]
                rs2 = rs2_arr[pc]
                taken = branch_arr[pc](regs[rs1], regs[rs2])
                if tracing:
                    record(
                        (pc, -1, 0, last_writer[rs1], last_writer[rs2], -1, taken)
                    )
                if taken:
                    next_pc = target_arr[pc]
            elif k == K_JUMP:
                branches += 1
                if tracing:
                    record((pc, -1, 0, -1, -1, -1, True))
                next_pc = target_arr[pc]
            elif k == K_JAL:
                branches += 1
                rd = rd_arr[pc]
                idx = -1
                if tracing:
                    record((pc, -1, 0, -1, -1, -1, True))
                    idx = executed - 1
                if rd:
                    regs[rd] = pc + 1
                    last_writer[rd] = idx
                next_pc = target_arr[pc]
            elif k == K_JR:
                branches += 1
                rs1 = rs1_arr[pc]
                if tracing:
                    record((pc, -1, 0, last_writer[rs1], -1, -1, True))
                next_pc = regs[rs1]
            elif k == K_HALT:
                if tracing:
                    record((pc, -1, 0, -1, -1, -1, False))
                halted = True
                break
            else:  # K_NOP
                if tracing:
                    record((pc, -1, 0, -1, -1, -1, False))

            pc = next_pc

        if not halted and strict_limit:
            raise ExecutionLimitExceeded(
                f"{self.program.name}: no halt within {max_instructions} "
                "instructions"
            )
        # The trace's parallel numpy arrays materialize lazily on first
        # column read: analysis pays the conversion, not the simulator.
        trace = Trace(records) if tracing else None
        result = FunctionalResult(
            trace=trace,
            instructions=executed,
            traced_instructions=len(trace) if trace is not None else 0,
            halted=halted,
            loads=loads,
            stores=stores,
            branches=branches,
            l1_misses=hierarchy.l1.misses if hierarchy is not None else 0,
            l2_misses=hierarchy.l2.misses if hierarchy is not None else 0,
            registers=regs,
            memory=memory,
            load_level_counts=load_level_counts,
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


def run_program(
    program: Program,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_instructions: int = 50_000_000,
    collect_trace: bool = True,
) -> FunctionalResult:
    """One-shot convenience wrapper around :class:`FunctionalSimulator`."""
    sim = FunctionalSimulator(program, hierarchy_config)
    return sim.run(
        max_instructions=max_instructions, collect_trace=collect_trace
    )
