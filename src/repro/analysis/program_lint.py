"""Workload-level lints over full programs (PL002–PL005).

Where the verifier (``verifier.py``) checks p-thread invariants, this
module checks the *source programs* the pipeline consumes.  The bundled
workload analogues are hand-written assembly; these lints catch the
mistakes hand-written assembly actually accumulates:

========  ========================================================
PL002     unreachable instructions (dead code the trace can never
          visit, so the profile and the selector never see it).
PL003     a register is read somewhere but written nowhere in the
          program.  Reading the initial zero of a register that *is*
          written elsewhere is idiomatic (cheap initialization); a
          register with no definition anywhere is almost certainly a
          typo.
PL004     a load whose address is statically constant reads a word
          the data image never initializes and no store can write —
          it will always produce 0, which is rarely intended.
PL005     execution can fall off the end of the program (a reachable
          final instruction that neither halts nor jumps).
========  ========================================================
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.analysis.dataflow import ControlFlowGraph, constant_registers
from repro.analysis.report import Diagnostic, Severity
from repro.isa.program import DataImage, Program


def _unreachable_runs(cfg: ControlFlowGraph) -> List[range]:
    """Maximal runs of unreachable instruction indices."""
    reachable = cfg.reachable()
    runs: List[range] = []
    start: Optional[int] = None
    for index in range(len(cfg) + 1):
        dead = index < len(cfg) and index not in reachable
        if dead and start is None:
            start = index
        elif not dead and start is not None:
            runs.append(range(start, index))
            start = None
    return runs


def _lint_reachability(
    program: Program, cfg: ControlFlowGraph
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for run in _unreachable_runs(cfg):
        first = program[run.start]
        span = (
            f"pc#{run.start:04d}"
            if len(run) == 1
            else f"pc#{run.start:04d}..#{run.stop - 1:04d}"
        )
        diagnostics.append(
            Diagnostic(
                "PL002",
                Severity.WARNING,
                f"unreachable code at {span} "
                f"({len(run)} instruction(s), starting with {first})",
                pc=run.start,
            )
        )
    reachable = cfg.reachable()
    for index in sorted(cfg.falls_off_end):
        if index in reachable:
            diagnostics.append(
                Diagnostic(
                    "PL005",
                    Severity.ERROR,
                    f"execution can fall off the end of the program "
                    f"after {program[index]}",
                    pc=index,
                )
            )
    return diagnostics


def _lint_registers(program: Program) -> List[Diagnostic]:
    """PL003 — registers read somewhere but written nowhere."""
    written: Set[int] = {0}
    for inst in program.instructions:
        dest = inst.dest()
        if dest is not None:
            written.add(dest)
    diagnostics: List[Diagnostic] = []
    reported: Set[int] = set()
    for inst in program.instructions:
        for src in inst.sources():
            if src is None or src in written or src in reported:
                continue
            reported.add(src)
            diagnostics.append(
                Diagnostic(
                    "PL003",
                    Severity.WARNING,
                    f"register r{src} is read (first at {inst}) but "
                    "never written anywhere in the program — it is "
                    "always the initial 0",
                    pc=inst.pc,
                )
            )
    return diagnostics


def _initialized(data: DataImage, addr: int) -> bool:
    if addr in data.words:
        return True
    return any(addr in region for region in data.regions.values())


def _lint_data_image(
    program: Program, cfg: ControlFlowGraph
) -> List[Diagnostic]:
    """PL004 — constant-address loads from never-initialized words.

    Conservative: if any store's address is not statically constant it
    could write anywhere, so the check is skipped entirely.
    """
    consts = constant_registers(cfg)
    store_addrs: Set[int] = set()
    for index, inst in enumerate(program.instructions):
        if not inst.is_store:
            continue
        state = consts[index]
        if state is None:
            continue  # unreachable store: writes nothing
        base = 0 if inst.rs1 == 0 else state.get(inst.rs1)
        if base is None:
            return []  # a store to an unknown address: anything goes
        store_addrs.add(base + inst.imm)
    diagnostics: List[Diagnostic] = []
    for index, inst in enumerate(program.instructions):
        if not inst.is_load:
            continue
        state = consts[index]
        if state is None:
            continue  # unreachable, or loop-varying state
        base = 0 if inst.rs1 == 0 else state.get(inst.rs1)
        if base is None:
            continue  # address not statically known
        addr = base + inst.imm
        if addr in store_addrs or _initialized(program.data, addr):
            continue
        diagnostics.append(
            Diagnostic(
                "PL004",
                Severity.WARNING,
                f"load from address {addr:#x} ({inst}): the data image "
                "never initializes that word and no store writes it — "
                "the load always produces 0",
                pc=index,
            )
        )
    return diagnostics


def lint_program(program: Program) -> List[Diagnostic]:
    """Run all workload-level lints (PL002–PL005) over ``program``."""
    cfg = ControlFlowGraph.from_program(program)
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_lint_reachability(program, cfg))
    diagnostics.extend(_lint_registers(program))
    diagnostics.extend(_lint_data_image(program, cfg))
    diagnostics.sort(
        key=lambda d: (d.pc if d.pc is not None else -1, d.code)
    )
    return diagnostics


def lint_workload(name: str, input_name: str = "train") -> List[Diagnostic]:
    """Build a bundled workload and lint its program."""
    from repro.workloads.suite import build

    workload = build(name, input_name)
    return lint_program(workload.program)
