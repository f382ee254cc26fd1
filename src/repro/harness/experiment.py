"""End-to-end experiment pipeline.

One :class:`ExperimentRunner` reproduces the paper's tool flow:

1. functional cache simulation → dynamic trace with miss levels
   (the paper's trace generator);
2. baseline timing simulation → unassisted IPC (a model input);
3. slice-tree construction + aggregate-advantage selection →
   static p-threads and framework predictions;
4. pre-execution timing simulation (plus the overhead-only /
   latency-only validation modes on request) → measured statistics.

Every stage value is memoized on the key of what produced it — traces
per program and hierarchy, selections per selection config and profile
region (the whole run, a prefix, or one window of a granularity cell),
timing runs per everything the timing model reads — so parameter sweeps
(Figures 4–8) only repeat the stages they vary, and a sweep point that
selects an earlier point's p-threads simulates nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import assert_clean, verification_enabled
from repro.engine.functional import FunctionalResult, run_program
from repro.harness.artifacts import ArtifactCache, program_digest, stable_key
from repro.harness.parallel import CellError, SweepError, run_cell, run_pool
from repro.memory.hierarchy import HierarchyConfig
from repro.model.params import ModelParams, SelectionConstraints
from repro.obs import Span, get_registry, get_tracer
from repro.selection.program_selector import (
    ProgramPrediction,
    ProgramSelection,
    select_pthreads,
)
from repro.timing.config import (
    BASELINE,
    LATENCY_ONLY,
    MachineConfig,
    OVERHEAD_EXECUTE,
    OVERHEAD_SEQUENCE,
    PERFECT_L2,
    PRE_EXECUTION,
    SimMode,
)
from repro.pthreads.pthread import StaticPThread
from repro.timing.core import Schedule, TimingSimulator, schedule_key
from repro.timing.stats import SimStats
from repro.workloads.common import SUITE_HIERARCHY
from repro.workloads.suite import Workload, build


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: workload + all knobs the paper varies.

    Attributes:
        workload: suite workload name.
        input_name: input the measurement runs on.
        constraints: p-thread selection constraints (Figures 4/5).
        machine: core configuration (width sweeps).
        hierarchy: memory system; ``None`` uses the workload default.
        model_mem_latency: ``Lmem`` presented to the *framework*; when
            it differs from the simulated memory latency this is the
            paper's Figure 8 over-/under-specification methodology.
        model_bw_seq: sequencing width presented to the framework
            (processor-width cross-validation); ``None`` uses the
            simulated machine's width.
        selection_input: input whose profile drives selection (Figure 7
            static scenario uses "test" while measuring on "train").
        selection_prefix: select using only the first N dynamic
            instructions of the trace (Figure 7 dynamic scenario).
        granularity: region size for region-specialized selection
            (Figure 6); ``None`` selects over the whole run.  Region
            selection does not read ``selection_prefix``, so setting
            both raises.
        validate: also run the overhead-only / latency-only
            validation simulations.
    """

    workload: str
    input_name: str = "train"
    constraints: SelectionConstraints = field(default_factory=SelectionConstraints)
    machine: MachineConfig = field(default_factory=MachineConfig)
    hierarchy: Optional[HierarchyConfig] = None
    model_mem_latency: Optional[int] = None
    model_bw_seq: Optional[int] = None
    selection_input: Optional[str] = None
    selection_prefix: Optional[int] = None
    granularity: Optional[int] = None
    validate: bool = False

    def __post_init__(self) -> None:
        for name in (
            "model_mem_latency",
            "model_bw_seq",
            "selection_prefix",
            "granularity",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.granularity is not None and self.selection_prefix is not None:
            raise ValueError(
                "granularity selects per region and ignores selection_prefix"
            )


@dataclass
class ExperimentResult:
    """What one experiment cell measured and selected.

    The cell's inputs (its workload and functional trace) stay in the
    runner's memo and the artifact store, where
    :meth:`ExperimentRunner.workload` and :meth:`ExperimentRunner.trace`
    hand them out, so a parallel cell ships only its outputs.
    """

    config: ExperimentConfig
    baseline: SimStats
    selection: ProgramSelection
    preexec: SimStats
    validation: Dict[str, SimStats] = field(default_factory=dict)
    num_regions: int = 1
    #: Wall-clock seconds this cell spent in each pipeline stage
    #: (``trace`` / ``baseline`` / ``selection`` / ``timing`` /
    #: ``validation``), read from the cell's ``experiment`` span.
    #: Stages satisfied from a cache report (near) zero, so a sweep's
    #: timings expose exactly what caching saved.
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Fractional speedup of pre-execution over the baseline."""
        return self.preexec.speedup_over(self.baseline)

    @property
    def coverage(self) -> float:
        return self.preexec.coverage_fraction

    @property
    def full_coverage(self) -> float:
        return self.preexec.full_coverage_fraction

    def summary_row(self) -> Dict[str, float]:
        """Flat metrics dict for table/figure rendering."""
        return {
            "base_ipc": self.baseline.ipc,
            "preexec_ipc": self.preexec.ipc,
            "speedup_pct": 100.0 * self.speedup,
            "coverage_pct": 100.0 * self.coverage,
            "full_coverage_pct": 100.0 * self.full_coverage,
            "overhead_pct": 100.0 * self.preexec.instruction_overhead,
            "pthread_len": self.preexec.avg_pthread_length,
            "launches": float(self.preexec.pthread_launches),
            "static_pthreads": float(len(self.selection.pthreads)),
        }


#: Pipeline stages in execution order, as a deadline check sees them.
PIPELINE_STAGES = ("trace", "baseline", "selection", "timing", "validation")

#: Stage kinds the runner counts, one ``harness.stage.<kind>.*``
#: counter set each.
STAGE_KINDS = (
    "trace",
    "baseline",
    "perfect_l2",
    "selection",
    "timing",
    "validation",
)

#: How a stage request was satisfied: from the in-memory cache, from
#: the persistent artifact cache, or by computing it.
OUTCOMES = ("hits", "disk_hits", "misses")

#: The stage kinds the artifact cache persists, each with the class
#: whose ``to_dict`` / ``from_dict`` carry it to and from JSON (``None``:
#: pickled as is).  Pre-exec and validation runs stay in memory.
PERSISTED = {
    "trace": FunctionalResult,
    "baseline": SimStats,
    "perfect_l2": SimStats,
    "selection": None,
}


def _simulated(stats: SimStats, outcome: str) -> int:
    """Instructions a timing run simulated: none when it was not run."""
    if outcome != "misses":
        return 0
    return stats.instructions + stats.pthread_instructions


def _count(kind: str, outcome: str, instructions: int = 0) -> None:
    """Record one stage outcome (and what it simulated) in the registry."""
    registry = get_registry()
    registry.counter(f"harness.cache.{outcome}").inc()
    registry.counter(f"harness.stage.{kind}.{outcome}").inc()
    if instructions:
        registry.counter(f"harness.stage.{kind}.instructions").inc(
            instructions
        )


@dataclass
class PartialExperimentResult:
    """What a budget-cut experiment had finished when the deadline hit.

    Soft-deadline semantics (the fuzz runner's pattern): the budget is
    only consulted *between* stages, so every stage listed in
    ``stages_completed`` ran to completion and its artifacts are in the
    runner's caches — a retry with a larger budget resumes from there
    for free.  ``next_stage`` is the stage the deadline prevented.
    """

    config: ExperimentConfig
    next_stage: str
    stages_completed: List[str] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)


class ExperimentDeadlineError(RuntimeError):
    """Raised when a per-request soft budget expires mid-pipeline."""

    def __init__(self, partial: PartialExperimentResult) -> None:
        super().__init__(
            f"experiment budget exceeded before stage {partial.next_stage!r} "
            f"(completed: {', '.join(partial.stages_completed) or 'none'})"
        )
        self.partial = partial


class ExperimentRunner:
    """Pipeline runner with stage caching across sweep cells.

    Every stage goes through one memo, keyed ``(kind, key)`` where
    ``key`` is the :func:`stable_key` of what the stage reads.  The
    :data:`PERSISTED` kinds (traces, selections and the runs that launch
    no p-threads) also go through the persistent content-addressed
    :class:`ArtifactCache` under that same key when ``artifacts`` is
    given, which survives across invocations and is shared by the worker
    processes of a parallel sweep.  Timing runs key on everything the
    timing model reads (:func:`schedule_key` for the p-threads), so
    cells that execute the same p-threads share one simulation.  Each
    stage method times itself in a span named by its kind and counts how
    it was satisfied in the metrics registry (``harness.cache.*`` and
    ``harness.stage.<kind>.*``).

    :meth:`run_all` runs a list of cells, over ``jobs`` worker processes
    when there is more than one job and more than one cell.
    """

    def __init__(
        self,
        max_instructions: int = 10_000_000,
        artifacts: Optional[ArtifactCache] = None,
        jobs: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"job count must be >= 1, got {jobs}")
        self.max_instructions = max_instructions
        self.artifacts = artifacts
        self.jobs = jobs
        # Registered up front so a snapshot carries every count, zeros
        # included.
        registry = get_registry()
        for outcome in OUTCOMES:
            registry.counter(f"harness.cache.{outcome}")
        for kind in STAGE_KINDS:
            for name in OUTCOMES + ("instructions",):
                registry.counter(f"harness.stage.{kind}.{name}")
        self._workloads: Dict[Tuple, Workload] = {}
        # Every stage value, by (kind, stable key).  Pre-exec and
        # validation runs live only here: they are the per-config work
        # a warm sweep still does, and what `warm_table2` times.
        self._memo: Dict[Tuple[str, str], Any] = {}

    # -- cached stages --------------------------------------------------

    def workload(
        self,
        name: str,
        input_name: str,
        hierarchy: Optional[HierarchyConfig] = None,
    ) -> Workload:
        # Key on the *resolved* hierarchy: ``None`` and an explicitly
        # passed default otherwise build duplicate workloads (re-running
        # the generators) in sweeps that mix the two spellings.
        resolved = hierarchy if hierarchy is not None else SUITE_HIERARCHY
        key = (name, input_name, resolved)
        if key not in self._workloads:
            self._workloads[key] = build(name, input_name, hierarchy=resolved)
        return self._workloads[key]

    def trace(self, workload: Workload) -> FunctionalResult:
        with get_tracer().span(
            "trace", workload=workload.name, input=workload.input_name
        ):
            result, outcome = self._stage(
                "trace",
                workload,
                lambda: run_program(
                    workload.program,
                    workload.hierarchy,
                    max_instructions=self.max_instructions,
                ),
            )
            simulated = result.instructions if outcome == "misses" else 0
            _count("trace", outcome, simulated)
            return result

    def baseline(self, workload: Workload, machine: MachineConfig) -> SimStats:
        return self._timed_stats("baseline", BASELINE, workload, machine)

    def perfect_l2(self, workload: Workload, machine: MachineConfig) -> SimStats:
        return self._timed_stats("perfect_l2", PERFECT_L2, workload, machine)

    # -- the stage memo and the artifact cache ---------------------------

    def _stage(
        self,
        kind: str,
        workload: Workload,
        compute: Callable[[], Any],
        **parts,
    ) -> Tuple[Any, str]:
        """One ``kind`` stage of ``workload`` through the memo, the
        artifact cache, then ``compute``.

        The key is the :func:`stable_key` of the program content,
        hierarchy, instruction cap and ``parts``; it names the value in
        the memo and, for the :data:`PERSISTED` kinds only, on disk.
        Returns the value and how it was satisfied (one of
        :data:`OUTCOMES`).  Two threads that miss one key both compute
        and store equal values.  A hit hands out the value the stage
        produced, shared by every cell that hits, so nothing may mutate
        it.
        """
        key = stable_key(
            kind,
            program=program_digest(workload.program),
            hierarchy=workload.hierarchy,
            max_instructions=self.max_instructions,
            **parts,
        )
        value = self._memo.get((kind, key))
        if value is not None:
            return value, "hits"
        persisted = self.artifacts is not None and kind in PERSISTED
        codec = PERSISTED.get(kind)
        payload = self.artifacts.load(kind, key) if persisted else None
        if payload is not None:
            value = payload if codec is None else codec.from_dict(payload)
            outcome = "disk_hits"
        else:
            value = compute()
            outcome = "misses"
            if persisted:
                self.artifacts.store(
                    kind, key, value if codec is None else value.to_dict()
                )
        self._memo[(kind, key)] = value
        return value, outcome

    def _timed_stats(
        self,
        kind: str,
        mode: SimMode,
        workload: Workload,
        machine: MachineConfig,
    ) -> SimStats:
        """One run without p-threads, in its own span and count."""
        with get_tracer().span(
            kind, workload=workload.name, input=workload.input_name
        ):
            stats, outcome = self._simulate(kind, mode, workload, machine)
        _count(kind, outcome, _simulated(stats, outcome))
        return stats

    def _simulate(
        self,
        kind: str,
        mode: SimMode,
        workload: Workload,
        machine: MachineConfig,
        pthreads: Optional[Sequence[StaticPThread]] = None,
        schedule: Optional[Schedule] = None,
    ) -> Tuple[SimStats, str]:
        """One timing run through :meth:`_stage`, keyed on everything the
        timing model reads; returns its stats and how they were
        satisfied."""
        return self._stage(
            kind,
            workload,
            lambda: TimingSimulator(
                workload.program,
                workload.hierarchy,
                machine,
                pthreads=pthreads,
                schedule=schedule,
            ).run(mode, max_instructions=self.max_instructions),
            machine=machine,
            mode=mode,
            schedule=schedule_key(pthreads, schedule),
        )

    def _cached_selection(
        self,
        profile_workload: Workload,
        profile_trace: FunctionalResult,
        params: ModelParams,
        constraints: SelectionConstraints,
        region: Optional[Tuple[int, int]],
    ) -> ProgramSelection:
        """P-thread selection over ``region`` of the profile (the whole
        run when ``None``), through both cache layers."""

        def select() -> ProgramSelection:
            with get_tracer().span(
                "slice+select", workload=profile_workload.name
            ):
                return select_pthreads(
                    profile_workload.program,
                    profile_trace.trace,
                    params,
                    constraints=constraints,
                    region=region,
                )

        selection, outcome = self._stage(
            "selection",
            profile_workload,
            select,
            params=params,
            constraints=constraints,
            region=region,
        )
        _count("selection", outcome)
        return selection

    # -- pipeline -------------------------------------------------------

    def model_params(
        self, config: ExperimentConfig, workload: Workload, base_ipc: float
    ) -> ModelParams:
        mem_latency = (
            config.model_mem_latency
            if config.model_mem_latency is not None
            else workload.hierarchy.mem_latency
        )
        return ModelParams(
            bw_seq=(
                config.model_bw_seq
                if config.model_bw_seq is not None
                else config.machine.bw_seq
            ),
            unassisted_ipc=max(base_ipc, 0.05),
            mem_latency=mem_latency,
            load_latency=workload.hierarchy.l1.hit_latency,
        )

    def run(
        self,
        config: ExperimentConfig,
        deadline: Optional[float] = None,
    ) -> ExperimentResult:
        """Execute one experiment cell end to end.

        ``deadline`` is an absolute ``time.monotonic()`` instant (the
        caller's soft budget).  It is checked *between* stages only —
        a stage that has started always finishes — and an expired
        budget raises :class:`ExperimentDeadlineError` carrying a
        :class:`PartialExperimentResult` of everything completed so far.
        """
        tracer = get_tracer()
        with tracer.span(
            "experiment", workload=config.workload, input=config.input_name
        ) as experiment:
            return self._run_traced(config, experiment, tracer, deadline)

    def run_all(
        self, configs: Sequence[ExperimentConfig]
    ) -> List[ExperimentResult]:
        """Run every cell; results come back in input order.

        With one job or one cell, the cells run one after another on
        this runner, so they share its memo and nest their spans under
        the coordinator's; otherwise they fan out over a pool of
        ``jobs`` worker processes (:func:`~repro.harness.parallel.run_pool`).
        A failed cell does not stop the others: once every cell has run,
        one :class:`~repro.harness.parallel.SweepError` names each failed
        cell with its config and traceback.
        """
        configs = list(configs)
        if not configs:
            return []
        jobs = min(self.jobs, len(configs))
        with get_tracer().span("sweep", cells=len(configs), jobs=jobs):
            if jobs == 1:
                outcomes = [run_cell(self, config) for config in configs]
            else:
                outcomes = run_pool(self, configs, jobs)
        failures = [o for o in outcomes if isinstance(o, CellError)]
        if failures:
            raise SweepError(failures)
        return outcomes

    @staticmethod
    def _check_deadline(
        deadline: Optional[float],
        next_stage: str,
        config: ExperimentConfig,
        experiment: Span,
    ) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            timings = experiment.seconds_by_name(PIPELINE_STAGES)
            raise ExperimentDeadlineError(
                PartialExperimentResult(
                    config=config,
                    next_stage=next_stage,
                    stages_completed=[
                        s for s in PIPELINE_STAGES if s in timings
                    ],
                    timings=timings,
                )
            )

    def _run_traced(
        self,
        config: ExperimentConfig,
        experiment: Span,
        tracer,
        deadline: Optional[float] = None,
    ) -> ExperimentResult:
        workload = self.workload(
            config.workload, config.input_name, config.hierarchy
        )
        self._check_deadline(deadline, "trace", config, experiment)
        functional = self.trace(workload)
        self._check_deadline(deadline, "baseline", config, experiment)
        base = self.baseline(workload, config.machine)

        # --- selection statistics may come from a different profile ---
        if config.selection_input is not None:
            profile_workload = self.workload(
                config.workload, config.selection_input, config.hierarchy
            )
            profile_trace = self.trace(profile_workload)
            profile_ipc = self.baseline(profile_workload, config.machine).ipc
        else:
            profile_workload = workload
            profile_trace = functional
            profile_ipc = base.ipc
        params = self.model_params(config, workload, profile_ipc)

        self._check_deadline(deadline, "selection", config, experiment)
        schedule: Optional[Schedule] = None
        num_regions = 1
        with tracer.span("selection"):
            if config.granularity is not None:
                # One selection per window of the profile, each through
                # the stage cache like a prefix; the schedule activates
                # each window's p-threads over its instructions.
                length = len(profile_trace.trace)
                windows = [
                    (start, min(start + config.granularity, length))
                    for start in range(0, length, config.granularity)
                ]
                selections = [
                    self._cached_selection(
                        profile_workload,
                        profile_trace,
                        params,
                        config.constraints,
                        window,
                    )
                    for window in windows
                ]
                schedule = [
                    (start, end, chosen.pthreads)
                    for (start, end), chosen in zip(windows, selections)
                ]
                num_regions = len(windows)
                selection = _aggregate_windows(
                    selections, params, config.constraints
                )
            else:
                region = None
                if config.selection_prefix is not None:
                    region = (0, config.selection_prefix)
                selection = self._cached_selection(
                    profile_workload,
                    profile_trace,
                    params,
                    config.constraints,
                    region,
                )

        if verification_enabled():
            # Covers cache-loaded selections, which the in-pipeline
            # REPRO_VERIFY hooks never see.
            from repro.analysis.verifier import verify_selection

            assert_clean(
                verify_selection(
                    profile_workload.program,
                    selection.pthreads,
                    config.constraints,
                ),
                f"experiment({config.workload!r}) selection",
            )

        # --- measurement ----------------------------------------------
        pthreads = selection.pthreads if schedule is None else None
        self._check_deadline(deadline, "timing", config, experiment)
        with tracer.span("timing"):
            preexec, outcome = self._simulate(
                "timing",
                PRE_EXECUTION,
                workload,
                config.machine,
                pthreads,
                schedule,
            )
        _count("timing", outcome, _simulated(preexec, outcome))
        validation: Dict[str, SimStats] = {}
        if config.validate:
            self._check_deadline(deadline, "validation", config, experiment)
            # One outcome per cell: a hit only when no run simulated.
            hits = True
            simulated = 0
            with tracer.span("validation"):
                # One child span per simulation, named by its key.
                for key, mode in (
                    ("overhead_execute", OVERHEAD_EXECUTE),
                    ("overhead_sequence", OVERHEAD_SEQUENCE),
                    ("latency_only", LATENCY_ONLY),
                ):
                    with tracer.span(key):
                        stats, outcome = self._simulate(
                            "validation",
                            mode,
                            workload,
                            config.machine,
                            pthreads,
                            schedule,
                        )
                    validation[key] = stats
                    hits = hits and outcome == "hits"
                    simulated += _simulated(stats, outcome)
            _count("validation", "hits" if hits else "misses", simulated)

        return ExperimentResult(
            config=config,
            baseline=base,
            selection=selection,
            preexec=preexec,
            validation=validation,
            num_regions=num_regions,
            timings=experiment.seconds_by_name(PIPELINE_STAGES),
        )


def _aggregate_windows(
    selections: Sequence[ProgramSelection],
    params: ModelParams,
    constraints: SelectionConstraints,
) -> ProgramSelection:
    """Collapse per-window selections into one reportable selection.

    The activation schedule keeps the per-window p-thread sets; this
    aggregate only exists so reports have program-level predictions.
    Its totals add the windows' predictions in window order.
    """
    totals = dict(
        launches=0,
        injected_instructions=0,
        misses_covered=0,
        misses_fully_covered=0,
        lt_agg=0.0,
        oh_agg=0.0,
        sample_instructions=0,
        sample_l2_misses=0,
    )
    for window in selections:
        for name in totals:
            totals[name] += getattr(window.prediction, name)
    return ProgramSelection(
        pthreads=[p for window in selections for p in window.pthreads],
        prediction=ProgramPrediction(
            unassisted_ipc=params.unassisted_ipc,
            sequencing_width=params.bw_seq,
            **totals,
        ),
        params=params,
        constraints=constraints,
    )
