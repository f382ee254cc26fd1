"""End-to-end experiment pipeline.

One :class:`ExperimentRunner` reproduces the paper's tool flow:

1. functional cache simulation → dynamic trace with miss levels
   (the paper's trace generator);
2. baseline timing simulation → unassisted IPC (a model input);
3. slice-tree construction + aggregate-advantage selection →
   static p-threads and framework predictions;
4. pre-execution timing simulation (plus the overhead-only /
   latency-only validation modes on request) → measured statistics.

Traces are cached per (workload, input, hierarchy), selections per
selection config, and timing runs per everything the timing model
reads, so parameter sweeps (Figures 4–8) only repeat the stages they
vary, and a sweep point that selects an earlier point's p-threads
simulates nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import assert_clean, verification_enabled
from repro.engine.functional import FunctionalResult, run_program
from repro.harness.artifacts import ArtifactCache, program_digest, stable_key
from repro.memory.hierarchy import HierarchyConfig
from repro.model.params import ModelParams, SelectionConstraints
from repro.obs import Span, get_registry, get_tracer
from repro.selection.granularity import select_by_region
from repro.selection.program_selector import ProgramSelection, select_pthreads
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
            (Figure 6); ``None`` selects over the whole run.
        effective_latency: refine ``Lmem`` per static load using the
            exposed-stall measurement from the baseline run — the
            critical-path extension the paper lists as future work.
        validate: also run the overhead-only / latency-only /
            perfect-L2 validation simulations.
        verify: statically verify the selection's p-thread invariants
            (PT001–PT006) and fail on any error.  Unlike the
            ``REPRO_VERIFY`` transformation hooks, this also covers
            selections loaded from the persistent artifact cache.
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
    effective_latency: bool = False
    validate: bool = False
    verify: bool = False

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


@dataclass
class ExperimentResult:
    """Everything one experiment cell produced."""

    config: ExperimentConfig
    workload: Workload
    functional: FunctionalResult
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

    Every expensive stage has an in-memory memo for repeats within this
    runner.  Traces, selections and the runs that launch no p-threads
    (baseline, perfect-L2) also go through the persistent
    content-addressed :class:`ArtifactCache` when ``artifacts`` is
    given, which survives across invocations and is shared by the worker
    processes of a parallel sweep.  The timing memo keys each run on
    everything the timing model reads (:func:`schedule_key`), so cells
    that execute the same p-threads share one simulation.  Each stage
    method times itself in a span named by its kind and counts how it
    was satisfied in the metrics registry (``harness.cache.*`` and
    ``harness.stage.<kind>.*``).
    """

    def __init__(
        self,
        max_instructions: int = 10_000_000,
        artifacts: Optional[ArtifactCache] = None,
    ) -> None:
        self.max_instructions = max_instructions
        self.artifacts = artifacts
        # Registered up front so a snapshot carries every count, zeros
        # included.
        registry = get_registry()
        for outcome in OUTCOMES:
            registry.counter(f"harness.cache.{outcome}")
        for kind in STAGE_KINDS:
            for name in OUTCOMES + ("instructions",):
                registry.counter(f"harness.stage.{kind}.{name}")
        self._workloads: Dict[Tuple, Workload] = {}
        self._traces: Dict[Tuple, FunctionalResult] = {}
        self._selections: Dict[str, ProgramSelection] = {}
        # Timing runs of every mode.  In memory only: the artifact keys
        # do not change with the timing model's code.
        self._runs: Dict[Tuple, SimStats] = {}

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
        key = (workload.name, workload.input_name, workload.hierarchy)
        with get_tracer().span(
            "trace", workload=workload.name, input=workload.input_name
        ):
            result = self._traces.get(key)
            if result is not None:
                _count("trace", "hits")
                return result
            result = self._trace_from_disk(workload)
            if result is not None:
                _count("trace", "disk_hits")
            else:
                result = run_program(
                    workload.program,
                    workload.hierarchy,
                    max_instructions=self.max_instructions,
                )
                _count("trace", "misses", result.instructions)
                self._trace_to_disk(workload, result)
            self._traces[key] = result
            return result

    def baseline(self, workload: Workload, machine: MachineConfig) -> SimStats:
        return self._timed_stats("baseline", BASELINE, workload, machine)

    def perfect_l2(self, workload: Workload, machine: MachineConfig) -> SimStats:
        return self._timed_stats("perfect_l2", PERFECT_L2, workload, machine)

    # -- persistent-cache plumbing --------------------------------------

    def _trace_key(self, workload: Workload) -> str:
        return self.artifacts.key(
            "trace",
            program=program_digest(workload.program),
            workload=workload.name,
            input=workload.input_name,
            hierarchy=workload.hierarchy,
            max_instructions=self.max_instructions,
        )

    def _trace_from_disk(self, workload: Workload) -> Optional[FunctionalResult]:
        if self.artifacts is None:
            return None
        payload = self.artifacts.load("trace", self._trace_key(workload))
        if payload is None:
            return None
        return FunctionalResult.from_dict(payload)

    def _trace_to_disk(self, workload: Workload, result: FunctionalResult) -> None:
        if self.artifacts is not None:
            self.artifacts.store(
                "trace", self._trace_key(workload), result.to_dict()
            )

    def _stats_key(
        self, kind: str, workload: Workload, machine: MachineConfig
    ) -> str:
        return self.artifacts.key(
            kind,
            program=program_digest(workload.program),
            workload=workload.name,
            input=workload.input_name,
            hierarchy=workload.hierarchy,
            machine=machine,
            max_instructions=self.max_instructions,
        )

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
        """One timing run through the run memo; returns its stats and
        how they were satisfied (one of :data:`OUTCOMES`).

        A run that launches no p-threads also goes through the artifact
        cache under ``kind``: its disk key holds no p-thread field.  Two
        threads that miss the same key both simulate and store equal
        stats.  The stats are shared by every cell that hits, so nothing
        may mutate them.
        """
        key = (
            program_digest(workload.program),
            workload.hierarchy,
            machine,
            mode,
            self.max_instructions,
            schedule_key(pthreads, schedule),
        )
        stats = self._runs.get(key)
        if stats is not None:
            return stats, "hits"
        outcome = "misses"
        persisted = self.artifacts is not None and not mode.launch
        payload = None
        if persisted:
            disk_key = self._stats_key(kind, workload, machine)
            payload = self.artifacts.load(kind, disk_key)
        if payload is not None:
            outcome = "disk_hits"
            stats = SimStats.from_dict(payload)
        else:
            sim = TimingSimulator(
                workload.program,
                workload.hierarchy,
                machine,
                pthreads=pthreads,
                schedule=schedule,
            )
            stats = sim.run(mode, max_instructions=self.max_instructions)
            if persisted:
                self.artifacts.store(kind, disk_key, stats.to_dict())
        self._runs[key] = stats
        return stats, outcome

    def _cached_selection(
        self,
        profile_workload: Workload,
        profile_trace: FunctionalResult,
        params: ModelParams,
        constraints: SelectionConstraints,
        region: Optional[Tuple[int, int]],
        lmem_overrides: Optional[Dict[int, float]],
    ) -> ProgramSelection:
        """Whole-run p-thread selection, through both cache layers."""
        key = stable_key(
            "selection",
            program=program_digest(profile_workload.program),
            workload=profile_workload.name,
            input=profile_workload.input_name,
            hierarchy=profile_workload.hierarchy,
            params=params,
            constraints=constraints,
            region=list(region) if region is not None else None,
            lmem_overrides=lmem_overrides,
            max_instructions=self.max_instructions,
        )
        cached = self._selections.get(key)
        if cached is not None:
            _count("selection", "hits")
            return cached
        selection = None
        if self.artifacts is not None:
            selection = self.artifacts.load("selection", key)
            if selection is not None:
                _count("selection", "disk_hits")
        if selection is None:
            _count("selection", "misses")
            with get_tracer().span(
                "slice+select", workload=profile_workload.name
            ):
                selection = select_pthreads(
                    profile_workload.program,
                    profile_trace.trace,
                    params,
                    constraints=constraints,
                    region=region,
                    lmem_overrides=lmem_overrides,
                )
            if self.artifacts is not None:
                self.artifacts.store("selection", key, selection)
        self._selections[key] = selection
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
                # Region-specialized selection stays uncached: its output
                # (a per-region activation schedule) is not content-
                # addressable by the same small key, and Figure 6 is the
                # only user.
                _count("selection", "misses")
                with tracer.span("slice+select", workload=profile_workload.name):
                    granular = select_by_region(
                        profile_workload.program,
                        profile_trace.trace,
                        params,
                        region_size=config.granularity,
                        constraints=config.constraints,
                    )
                schedule = granular.schedule()
                num_regions = len(granular.regions)
                # Report the aggregate of the region selections.
                selection = _aggregate_regions(
                    granular, params, config.constraints
                )
            else:
                region = None
                if config.selection_prefix is not None:
                    region = (0, config.selection_prefix)
                lmem_overrides = None
                if config.effective_latency:
                    lmem_overrides = {
                        pc: base.effective_latency(pc, params.mem_latency)
                        for pc in base.miss_exposure
                    }
                selection = self._cached_selection(
                    profile_workload,
                    profile_trace,
                    params,
                    config.constraints,
                    region,
                    lmem_overrides,
                )

        if config.verify or verification_enabled():
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
            # perfect_l2 has its own span and cache.
            validation["perfect_l2"] = self.perfect_l2(
                workload, config.machine
            )

        return ExperimentResult(
            config=config,
            workload=workload,
            functional=functional,
            baseline=base,
            selection=selection,
            preexec=preexec,
            validation=validation,
            num_regions=num_regions,
            timings=experiment.seconds_by_name(PIPELINE_STAGES),
        )


def _aggregate_regions(granular, params, constraints) -> ProgramSelection:
    """Collapse per-region selections into one reportable selection.

    The activation schedule keeps the per-region p-thread sets; this
    aggregate only exists so reports have program-level predictions.
    """
    from repro.selection.program_selector import ProgramPrediction

    pthreads = [p for region in granular.regions for p in region.pthreads]
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
    for region in granular.regions:
        prediction = region.selection.prediction
        totals["launches"] += prediction.launches
        totals["injected_instructions"] += prediction.injected_instructions
        totals["misses_covered"] += prediction.misses_covered
        totals["misses_fully_covered"] += prediction.misses_fully_covered
        totals["lt_agg"] += prediction.lt_agg
        totals["oh_agg"] += prediction.oh_agg
        totals["sample_instructions"] += prediction.sample_instructions
        totals["sample_l2_misses"] += prediction.sample_l2_misses
    prediction = ProgramPrediction(
        unassisted_ipc=params.unassisted_ipc,
        sequencing_width=params.bw_seq,
        **totals,
    )
    return ProgramSelection(
        pthreads=pthreads,
        tree_selections={},
        prediction=prediction,
        params=params,
        constraints=constraints,
    )
