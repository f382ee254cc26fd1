"""The differential oracle: end-to-end cross-checks for one workload.

Runs a (generated or hand-written) workload through the full pipeline
and applies seven check families, each named by a stable identifier so
shrinking can match "the same failure" across candidate reductions:

``engine_equivalence``
    The timing simulator's tiered engine, which compiles the whole
    program before the first instruction, must be bit-identical to the
    reference interpreter.  Compared are the stats in baseline and
    pre-execution modes.  Every tiered run must have compiled every
    block: no silent compile fallback.  The functional simulator has
    one engine; its run here is the reference every later family
    reads.

``functional_vs_timing``
    The two independent execution models must commit the same
    architectural state: identical dynamic instruction/load/store/
    branch counts, identical final registers and memory, in baseline
    *and* pre-execution mode (pre-execution is purely speculative — it
    must never change architectural results), plus identical L2 miss
    counts for the unassisted run (same cache model, same stream).

``pthread_verify``
    Every selected p-thread must pass the static PT001–PT006
    invariant verifier (the ``REPRO_VERIFY`` checks) with no
    error-severity findings.

``model_invariants``
    Slice-tree structure (parent ``DCpt-cm`` = sum of children plus
    terminations) and the advantage model's arithmetic
    (``ADVagg = LTagg − OHagg``, ``LTagg = DCpt-cm·LT``,
    ``OHagg = DCtrig·OH``, ``OH = SIZEpt·charge``) recomputed against
    :mod:`repro.model.advantage`, and the aggregate prediction's
    consistency with its per-p-thread parts.  The ``slice_prefix``
    check widens the trace's slice table past the selection's scope and
    tree depth, derives trees at a narrower config from it, and
    requires them to equal trees sliced fresh at that config.

``memory_sanity``
    Cache/MSHR accounting sanity on both simulators: the program
    halts, per-level load counts add up, L2 misses never exceed L1
    misses, coverage classifications never exceed the miss count, IPC
    respects the sequencing-bandwidth bound, and p-thread counters are
    zero when no p-threads run.

``codegen_transval``
    Static translation validation (:mod:`repro.analysis.transval`) of
    every compiled variant the dynamic families exercised: the
    baseline timing shape, and the pre-execution timing shape with the
    selection's trigger PCs.  No simulation runs — the generated block
    source is proven equivalent to the interpreter semantics
    symbolically, so this family is cheap per seed and catches codegen
    bugs on paths the dynamic inputs never reached.

``timing_parity``
    The discrete-event timing model
    (:mod:`repro.timing.eventsim`) against the trace-driven one under
    the pinned cross-model contract of
    :mod:`repro.validation.parity`: identical committed architectural
    state and every ``SimStats`` field, cycles included, in baseline
    and pre-execution modes.  Check names are the contract's pinned
    check names prefixed by the mode (``baseline_registers``,
    ``preexec_pthread_launches``, ...); the diverging values live in
    the message so reduced reproducers keep a stable identity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.report import Severity
from repro.analysis.verifier import verify_selection
from repro.engine.compiler import ENGINE_INTERP, ENGINE_TIERED, discover_blocks
from repro.engine.functional import FunctionalResult, FunctionalSimulator
from repro.engine.trace import Trace
from repro.fuzz.generator import FuzzWorkload
from repro.model.params import ModelParams, SelectionConstraints
from repro.selection.program_selector import (
    ProgramSelection,
    select_pthreads,
    slice_tree_depth,
)
from repro.slicing.serialize import tree_to_dict
from repro.slicing.slice_tree import (
    SliceTree,
    build_slice_trees,
    build_slice_trees_for_roots,
)
from repro.timing.config import BASELINE, PRE_EXECUTION, MachineConfig
from repro.timing.core import TimingSimulator
from repro.timing.stats import SimStats

#: The seven check families, in the order they run.
CHECK_FAMILIES: Tuple[str, ...] = (
    "engine_equivalence",
    "functional_vs_timing",
    "pthread_verify",
    "model_invariants",
    "memory_sanity",
    "codegen_transval",
    "timing_parity",
)

#: ``engine_equivalence`` timing columns: the reference interpreter
#: first, then the tiered engine.
_COLUMNS = (ENGINE_INTERP, ENGINE_TIERED)


def _expect_all_compiled(
    check: "_Checker", sim, label: str, extra_leaders=()
) -> None:
    """A tiered run compiled every block (no silent compile fallback)."""
    blocks = len(discover_blocks(sim.decoded, extra_leaders))
    compiled = sim.last_tier["compiled_blocks"]
    check.expect(
        compiled == blocks,
        "engine_availability",
        f"{label}: tiered run compiled {compiled} of {blocks} blocks",
    )


@dataclass(frozen=True)
class CheckFailure:
    """One oracle finding: a named check within a family, with detail."""

    family: str
    check: str
    message: str

    def render(self) -> str:
        return f"{self.family}/{self.check}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "check": self.check,
            "message": self.message,
        }


@dataclass
class OracleReport:
    """Everything one oracle run over one workload produced."""

    name: str
    seed: int
    shape: str
    families_run: List[str] = field(default_factory=list)
    failures: List[CheckFailure] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock seconds spent in each family that ran (checks plus
    #: the simulations it triggered), for campaign overhead accounting.
    #: Deliberately excluded from :meth:`to_dict`: verdicts are a pure
    #: function of the seed, wall-clock is not.
    family_seconds: Dict[str, float] = field(default_factory=dict)
    #: True when a soft deadline truncated this run: later families were
    #: skipped entirely, but every check that did run is complete.
    budget_exceeded: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_checks(self) -> Set[Tuple[str, str]]:
        """The (family, check) identities of every failure."""
        return {(f.family, f.check) for f in self.failures}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "shape": self.shape,
            "ok": self.ok,
            "families_run": list(self.families_run),
            "failures": [f.to_dict() for f in self.failures],
            "stats": dict(self.stats),
            "budget_exceeded": self.budget_exceeded,
        }

    def render(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        if self.budget_exceeded:
            verdict += (
                f" (budget exceeded after "
                f"{len(self.families_run)} family(ies))"
            )
        lines = [f"{self.name}: {verdict}"]
        lines.extend("  " + f.render() for f in self.failures)
        return "\n".join(lines)


class _Checker:
    """Accumulates failures for one family at a time."""

    def __init__(self, report: OracleReport) -> None:
        self.report = report
        self.family = ""
        self._family_started: Optional[float] = None

    def start(self, family: str) -> None:
        self.finish()
        self.family = family
        self._family_started = time.monotonic()
        self.report.families_run.append(family)

    def finish(self) -> None:
        """Close the running family's wall-clock accounting, if any."""
        if self._family_started is not None:
            self.report.family_seconds[self.family] = round(
                time.monotonic() - self._family_started, 6
            )
            self._family_started = None

    def fail(self, check: str, message: str) -> None:
        self.report.failures.append(
            CheckFailure(self.family, check, message)
        )

    def expect(self, condition: bool, check: str, message: str) -> None:
        if not condition:
            self.fail(check, message)

    def expect_eq(self, a, b, check: str, label: str) -> None:
        if a != b:
            self.fail(check, f"{label}: {a!r} != {b!r}")

    def expect_close(self, a: float, b: float, check: str, label: str) -> None:
        if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
            self.fail(check, f"{label}: {a!r} !~ {b!r}")


def _dict_diff(a: dict, b: dict) -> str:
    """Compact rendering of the keys on which two dicts disagree."""
    keys = [k for k in a if a.get(k) != b.get(k)]
    keys += [k for k in b if k not in a]
    parts = []
    for key in keys[:4]:
        av, bv = a.get(key), b.get(key)
        av = repr(av)[:60]
        bv = repr(bv)[:60]
        parts.append(f"{key}: {av} != {bv}")
    if len(keys) > 4:
        parts.append(f"... {len(keys) - 4} more key(s)")
    return "; ".join(parts) or "(dicts equal?)"


def _memory_words(memory) -> Dict[int, int]:
    """Non-zero committed memory words, for state comparisons."""
    return {
        addr: value
        for addr, value in memory.snapshot().items()
        if value != 0
    }


@dataclass
class _TimingRun:
    stats: SimStats
    registers: List[int]
    memory_words: Dict[int, int]


def _run_timing(
    workload: FuzzWorkload,
    mode,
    column: str,
    pthreads,
    machine: MachineConfig,
    max_instructions: int,
    checker: _Checker,
    label: str,
) -> _TimingRun:
    sim = TimingSimulator(
        workload.program,
        workload.hierarchy,
        machine=machine,
        pthreads=pthreads,
        engine=column,
    )
    stats = sim.run(mode, max_instructions=max_instructions)
    if column == ENGINE_TIERED:
        triggers = (
            sorted({pt.trigger_pc for pt in pthreads or ()})
            if mode.launch
            else ()
        )
        _expect_all_compiled(checker, sim, label, triggers)
    return _TimingRun(
        stats=stats,
        registers=list(sim.last_registers),
        memory_words=_memory_words(sim.last_memory),
    )


def run_oracle(
    workload: FuzzWorkload,
    max_instructions: int = 400_000,
    machine: Optional[MachineConfig] = None,
    deadline: Optional[float] = None,
) -> OracleReport:
    """Run every check family over one workload.

    Deterministic: the same workload (same seed) always yields the
    same verdicts.  All five families run even when an early family
    fails, so a report shows the full blast radius of a bug.

    ``deadline`` is an absolute ``time.monotonic()`` value acting as a
    *soft* per-run budget: it is consulted only between simulation
    stages and check families, never inside one, so a truncated run
    (``budget_exceeded=True``) skips later families entirely while
    every check that did run is complete and reproducible.
    """
    machine = machine or MachineConfig()
    report = OracleReport(
        name=workload.name, seed=workload.seed, shape=workload.shape
    )
    check = _Checker(report)
    program, hierarchy = workload.program, workload.hierarchy

    def expired() -> bool:
        if deadline is not None and time.monotonic() >= deadline:
            check.finish()
            report.budget_exceeded = True
            return True
        return False

    # ---- family 1: engine equivalence --------------------------------
    check.start("engine_equivalence")
    func = FunctionalSimulator(program, hierarchy).run(
        max_instructions=max_instructions
    )
    report.stats = {
        "instructions": func.instructions,
        "loads": func.loads,
        "stores": func.stores,
        "branches": func.branches,
        "l1_misses": func.l1_misses,
        "l2_misses": func.l2_misses,
    }
    if expired():
        return report

    base: Dict[str, _TimingRun] = {}
    for column in _COLUMNS:
        base[column] = _run_timing(
            workload, BASELINE, column, None, machine, max_instructions,
            check, "timing baseline",
        )
    for column in _COLUMNS[1:]:
        check.expect(
            base[ENGINE_INTERP].stats.to_dict()
            == base[column].stats.to_dict(),
            f"timing_baseline_{column}",
            _dict_diff(
                base[ENGINE_INTERP].stats.to_dict(),
                base[column].stats.to_dict(),
            ),
        )
    if expired():
        return report

    # Selection from the functional trace.
    params = ModelParams(
        bw_seq=machine.bw_seq,
        unassisted_ipc=max(base[ENGINE_INTERP].stats.ipc, 0.05),
        mem_latency=hierarchy.mem_latency,
        load_latency=hierarchy.l1.hit_latency,
    )
    constraints = SelectionConstraints()
    selection = select_pthreads(program, func.trace, params, constraints)
    report.stats["static_pthreads"] = len(selection.pthreads)
    if expired():
        return report

    pre: Dict[str, _TimingRun] = {}
    for column in _COLUMNS:
        pre[column] = _run_timing(
            workload, PRE_EXECUTION, column, selection.pthreads, machine,
            max_instructions, check, "timing pre-execution",
        )
    for column in _COLUMNS[1:]:
        check.expect(
            pre[ENGINE_INTERP].stats.to_dict()
            == pre[column].stats.to_dict(),
            f"timing_preexec_{column}",
            _dict_diff(
                pre[ENGINE_INTERP].stats.to_dict(),
                pre[column].stats.to_dict(),
            ),
        )
    report.stats["pthread_launches"] = (
        pre[ENGINE_INTERP].stats.pthread_launches
    )
    report.stats["preexec_speedup"] = (
        pre[ENGINE_INTERP].stats.speedup_over(base[ENGINE_INTERP].stats)
        if base[ENGINE_INTERP].stats.ipc > 0
        else 0.0
    )
    if expired():
        return report

    # ---- family 2: functional vs timing committed state --------------
    check.start("functional_vs_timing")
    func_memory = _memory_words(func.memory)
    for label, run in (
        ("baseline", base[ENGINE_INTERP]),
        ("preexec", pre[ENGINE_INTERP]),
    ):
        stats = run.stats
        check.expect_eq(
            stats.instructions, func.instructions,
            f"{label}_instructions", "retired instructions",
        )
        check.expect_eq(stats.loads, func.loads, f"{label}_loads", "loads")
        check.expect_eq(stats.stores, func.stores, f"{label}_stores", "stores")
        check.expect_eq(
            stats.branches, func.branches, f"{label}_branches", "branches"
        )
        check.expect_eq(
            run.registers, func.registers,
            f"{label}_registers", "final register file",
        )
        check.expect(
            run.memory_words == func_memory,
            f"{label}_memory",
            f"final memory differs on "
            f"{len(set(run.memory_words.items()) ^ set(func_memory.items()))}"
            " word(s)",
        )
    # Same cache model, same unassisted reference stream.
    check.expect_eq(
        base[ENGINE_INTERP].stats.l2_misses, func.l2_misses,
        "baseline_l2_misses", "unassisted L2 misses",
    )
    # L1 misses count loads *and* stores in both models (the timing
    # simulator used to drop store misses on the floor).  Timing may
    # forward a load from the store queue instead of accessing the
    # hierarchy, so its count can trail the functional one, but never
    # exceed it while the reference stream is unassisted.
    check.expect(
        base[ENGINE_INTERP].stats.l1_misses <= func.l1_misses,
        "baseline_l1_misses",
        f"timing L1 misses {base[ENGINE_INTERP].stats.l1_misses} > "
        f"functional {func.l1_misses}",
    )

    if expired():
        return report

    # ---- family 3: p-thread invariant verification -------------------
    check.start("pthread_verify")
    diagnostics = verify_selection(program, selection.pthreads, constraints)
    for diagnostic in diagnostics:
        if diagnostic.severity is Severity.ERROR:
            check.fail(diagnostic.code, diagnostic.render())

    if expired():
        return report

    # ---- family 4: slice-tree / advantage-model invariants -----------
    check.start("model_invariants")
    _check_model(check, selection, func.trace, params, constraints)
    _check_slice_prefix(check, func.trace, constraints)

    if expired():
        return report

    # ---- family 5: cache / MSHR accounting sanity --------------------
    check.start("memory_sanity")
    _check_functional_sanity(check, func)
    _check_stats_sanity(
        check, base[ENGINE_INTERP].stats, machine, "baseline", pthreads=False
    )
    _check_stats_sanity(
        check, pre[ENGINE_INTERP].stats, machine, "preexec", pthreads=True
    )

    if expired():
        return report

    # ---- family 6: static translation validation of codegen ----------
    check.start("codegen_transval")
    _check_codegen_transval(check, workload, machine, selection)

    if expired():
        return report

    # ---- family 7: cross-model timing parity -------------------------
    check.start("timing_parity")
    _check_timing_parity(
        check,
        workload,
        machine,
        selection,
        base[ENGINE_INTERP],
        pre[ENGINE_INTERP],
        max_instructions,
    )

    check.finish()
    return report


def _check_timing_parity(
    check: _Checker,
    workload: FuzzWorkload,
    machine: MachineConfig,
    selection: ProgramSelection,
    base_run: "_TimingRun",
    pre_run: "_TimingRun",
    max_instructions: int,
) -> None:
    """Cross-model parity: event-driven vs trace-driven timing.

    Reuses the trace-driven interpreter runs families 1–2 already
    captured; only the event-driven model runs fresh.  Failure names
    come from the pinned contract order so a reduced reproducer keeps
    the same ``(family, check)`` identity as long as the same kind of
    state diverges — the shrinker additionally matches this family at
    family granularity (see :mod:`repro.fuzz.shrink`) because a
    reduction can legitimately move the first observable divergence
    between checks.
    """
    from repro.timing.eventsim import EventSimulator
    from repro.validation.parity import ParityRun, compare_runs

    def as_parity(stats: SimStats, registers, memory_words) -> ParityRun:
        return ParityRun(
            stats=stats.to_dict(),
            registers=list(registers),
            memory_words=dict(memory_words),
        )

    variants = (
        ("baseline", BASELINE, None, base_run),
        ("preexec", PRE_EXECUTION, selection.pthreads, pre_run),
    )
    for label, mode, pthreads, trace_run in variants:
        event_sim = EventSimulator(
            workload.program,
            workload.hierarchy,
            machine=machine,
            pthreads=pthreads,
        )
        event_stats = event_sim.run(mode, max_instructions=max_instructions)
        report = compare_runs(
            as_parity(
                trace_run.stats, trace_run.registers, trace_run.memory_words
            ),
            as_parity(
                event_stats,
                event_sim.last_registers,
                _memory_words(event_sim.last_memory),
            ),
            workload=workload.name,
            mode=mode.name,
            engine=ENGINE_INTERP,
        )
        for pcheck in report.checks:
            if not pcheck.ok:
                check.fail(f"{label}_{pcheck.name}", pcheck.render())


def _check_codegen_transval(
    check: _Checker,
    workload: FuzzWorkload,
    machine: MachineConfig,
    selection: ProgramSelection,
) -> None:
    """Statically validate every compiled variant the oracle exercised."""
    program, hierarchy = workload.program, workload.hierarchy
    for pthreads, shape in (
        (None, (False, False, False)),
        (selection.pthreads, (True, True, False)),
    ):
        tsim = TimingSimulator(
            program, hierarchy, machine=machine, pthreads=pthreads
        )
        result = tsim.validate_codegen(*shape)
        launching, stealing, prefetching = shape
        _transval_failures(
            check,
            f"timing launching={int(launching)} stealing={int(stealing)} "
            f"prefetching={int(prefetching)}",
            result,
        )


def _transval_failures(check: _Checker, label: str, result) -> None:
    for diagnostic in result.diagnostics:
        if diagnostic.severity is Severity.ERROR:
            check.fail(diagnostic.code, f"{label}: {diagnostic.render()}")


def _check_model(
    check: _Checker,
    selection: ProgramSelection,
    trace: Trace,
    params: ModelParams,
    constraints: SelectionConstraints,
) -> None:
    """Slice-tree structure + advantage arithmetic consistency.

    The trees are the ones selection built: the same call, so the
    trace's slice table answers it without slicing again.
    """
    trees = build_slice_trees(
        trace,
        scope=constraints.scope,
        max_length=slice_tree_depth(constraints),
    )
    for load_pc, tree in trees.items():
        check.expect_eq(
            tree.root.pc, load_pc, "tree_root", "tree root pc"
        )
        try:
            tree.check_invariants()
        except AssertionError as exc:
            check.fail("tree_dcptcm", str(exc))

    charge = params.overhead_per_instruction()
    for pthread in selection.pthreads:
        tag = f"trigger #{pthread.trigger_pc}"
        for score in pthread.components:
            check.expect(
                0.0 <= score.lt <= params.mem_latency,
                "lt_bounds",
                f"{tag}: LT {score.lt} outside [0, {params.mem_latency}]",
            )
            check.expect(
                score.oh >= 0.0, "oh_sign", f"{tag}: OH {score.oh} < 0"
            )
            check.expect_close(
                score.oh, score.size * charge, "oh_formula",
                f"{tag}: OH vs SIZEpt*charge",
            )
            check.expect_close(
                score.lt_agg, score.dc_pt_cm * score.lt, "lt_agg",
                f"{tag}: LTagg vs DCpt-cm*LT",
            )
            check.expect_close(
                score.oh_agg, score.dc_trig * score.oh, "oh_agg",
                f"{tag}: OHagg vs DCtrig*OH",
            )
            check.expect_close(
                score.adv_agg, score.lt_agg - score.oh_agg, "adv_agg",
                f"{tag}: ADVagg vs LTagg-OHagg",
            )
        prediction = pthread.prediction
        check.expect_close(
            prediction.oh_agg,
            prediction.dc_trig * pthread.size * charge,
            "pthread_oh_agg",
            f"{tag}: prediction OHagg vs DCtrig*SIZEpt*charge",
        )
        check.expect(
            prediction.misses_fully_covered <= prediction.misses_covered,
            "pthread_coverage",
            f"{tag}: fully covered {prediction.misses_fully_covered} > "
            f"covered {prediction.misses_covered}",
        )

    prediction = selection.prediction
    pthreads = selection.pthreads
    check.expect_eq(
        prediction.launches,
        sum(p.prediction.dc_trig for p in pthreads),
        "agg_launches", "aggregate launches",
    )
    check.expect_eq(
        prediction.injected_instructions,
        sum(p.prediction.injected_instructions for p in pthreads),
        "agg_injected", "aggregate injected instructions",
    )
    check.expect_close(
        prediction.oh_agg,
        sum(p.prediction.oh_agg for p in pthreads),
        "agg_oh", "aggregate OHagg",
    )
    check.expect_close(
        prediction.lt_agg,
        sum(p.prediction.lt_agg for p in pthreads),
        "agg_lt", "aggregate LTagg",
    )
    check.expect_close(
        prediction.adv_agg,
        prediction.lt_agg - prediction.oh_agg,
        "agg_adv", "aggregate ADVagg",
    )
    check.expect(
        0 <= prediction.misses_fully_covered
        <= prediction.misses_covered
        <= max(prediction.sample_l2_misses, prediction.misses_covered),
        "agg_coverage",
        f"coverage ordering violated: full "
        f"{prediction.misses_fully_covered}, covered "
        f"{prediction.misses_covered}, sample "
        f"{prediction.sample_l2_misses}",
    )
    check.expect(
        prediction.misses_covered <= prediction.sample_l2_misses
        or not prediction.sample_l2_misses,
        "agg_covered_le_misses",
        f"covered {prediction.misses_covered} > sample misses "
        f"{prediction.sample_l2_misses}",
    )


def _check_slice_prefix(
    check: _Checker, trace: Trace, constraints: SelectionConstraints
) -> None:
    """Trees derived from a widened slice table equal fresh ones.

    Selection sliced the trace at its scope and tree depth.  Widen the
    table to twice both, then ask for a quarter of the scope and half
    the depth: every tree must match an exact-config build, children
    order included (pickles keep it).
    """
    scope = constraints.scope
    depth = slice_tree_depth(constraints)
    build_slice_trees(trace, scope=2 * scope, max_length=2 * depth)
    narrow_scope, narrow_depth = scope // 4, depth // 2
    derived = build_slice_trees(
        trace, scope=narrow_scope, max_length=narrow_depth
    )
    fresh = build_slice_trees_for_roots(
        trace,
        trace.miss_indices(3),
        scope=narrow_scope,
        max_length=narrow_depth,
    )
    check.expect_eq(
        list(derived), list(fresh), "slice_prefix", "derived tree load PCs"
    )
    for load_pc, tree in fresh.items():
        got = derived.get(load_pc)
        check.expect(
            got is not None and _tree_shape(got) == _tree_shape(tree),
            "slice_prefix",
            f"load #{load_pc}: tree derived at scope {narrow_scope}, "
            f"depth {narrow_depth} differs from a fresh build",
        )


def _tree_shape(tree: SliceTree):
    """Every node field, plus each node's children in insertion order."""
    return tree_to_dict(tree), [list(node.children) for node in tree.nodes()]


def _check_functional_sanity(
    check: _Checker, func: FunctionalResult
) -> None:
    check.expect(
        func.halted, "halted",
        f"program did not halt within the instruction budget "
        f"({func.instructions} executed)",
    )
    level_counts = func.load_level_counts
    check.expect_eq(
        sum(level_counts.values()), func.loads,
        "level_counts", "per-level load counts vs loads",
    )
    check.expect(
        func.l2_misses <= func.l1_misses,
        "l2_le_l1",
        f"L2 misses {func.l2_misses} > L1 misses {func.l1_misses}",
    )
    check.expect(
        level_counts.get(2, 0) + level_counts.get(3, 0) <= func.l1_misses,
        "load_misses_le_l1",
        f"load L1 misses {level_counts.get(2, 0) + level_counts.get(3, 0)} "
        f"> total L1 misses {func.l1_misses}",
    )
    check.expect(
        level_counts.get(3, 0) <= func.l2_misses,
        "load_misses_le_l2",
        f"memory-level loads {level_counts.get(3, 0)} > L2 misses "
        f"{func.l2_misses}",
    )


def _check_stats_sanity(
    check: _Checker,
    stats: SimStats,
    machine: MachineConfig,
    label: str,
    pthreads: bool,
) -> None:
    check.expect(
        stats.cycles > 0 or not stats.instructions,
        f"{label}_cycles",
        f"{stats.instructions} instructions in {stats.cycles} cycles",
    )
    check.expect(
        stats.instructions <= stats.cycles * machine.bw_seq,
        f"{label}_ipc_bound",
        f"IPC {stats.ipc:.3f} exceeds sequencing width {machine.bw_seq}",
    )
    check.expect(
        stats.l2_misses <= stats.l1_misses,
        f"{label}_l2_le_l1",
        f"L2 misses {stats.l2_misses} > L1 misses {stats.l1_misses}",
    )
    check.expect(
        stats.misses_covered <= stats.l2_misses,
        f"{label}_covered_le_misses",
        f"covered {stats.misses_covered} > L2 misses {stats.l2_misses}",
    )
    check.expect(
        stats.loads + stats.stores + stats.branches <= stats.instructions,
        f"{label}_mix",
        "loads+stores+branches exceed instruction count",
    )
    check.expect(
        stats.mispredictions <= stats.branches,
        f"{label}_mispredicts",
        f"mispredictions {stats.mispredictions} > branches {stats.branches}",
    )
    if pthreads:
        check.expect_eq(
            sum(stats.launches_by_trigger.values()),
            stats.pthread_launches,
            f"{label}_launch_totals",
            "per-trigger launches vs pthread_launches",
        )
        check.expect_eq(
            sum(stats.drops_by_trigger.values()),
            stats.pthread_drops,
            f"{label}_drop_totals",
            "per-trigger drops vs pthread_drops",
        )
        # Every attempt is exactly one launch or one drop, per trigger.
        attempts = {
            pc: stats.launches_by_trigger.get(pc, 0)
            + stats.drops_by_trigger.get(pc, 0)
            for pc in set(stats.launches_by_trigger)
            | set(stats.drops_by_trigger)
        }
        check.expect_eq(
            sum(attempts.values()),
            stats.pthread_launches + stats.pthread_drops,
            f"{label}_attempt_totals",
            "per-trigger attempts (launches+drops) vs totals",
        )
    else:
        check.expect(
            stats.pthread_launches == 0
            and stats.pthread_instructions == 0
            and stats.pthread_l2_misses == 0,
            f"{label}_no_pthreads",
            "p-thread activity recorded in a mode without p-threads",
        )
