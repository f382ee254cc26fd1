"""Parallel sweep execution.

Sweep cells (one :class:`ExperimentConfig` each) are embarrassingly
parallel: they share read-only inputs and never communicate.
:class:`SweepExecutor` maps a list of cells over a
``ProcessPoolExecutor``, with:

* worker count from ``REPRO_JOBS`` (default ``os.cpu_count()``);
* deterministic result ordering — results come back in input order no
  matter which worker finished first;
* per-cell exception capture — a failed cell reports its config and
  full traceback as a :class:`CellError` instead of killing the sweep;
* a serial fallback used when the job count is 1, which runs every
  cell in-process on the shared runner.  Cells are deterministic, so
  the two paths produce identical results (the serial/parallel
  equivalence guarantee README.md documents and the tests pin down).

Worker processes each hold their own :class:`ExperimentRunner`; the
persistent :class:`~repro.harness.artifacts.ArtifactCache` (when
enabled) is what lets them share traces and baselines instead of
re-computing them per process.  Workers ship each cell's span subtree
and metrics snapshot back with its result; the executor attaches the
spans and merges the metrics into the coordinator's tracer and
registry, so one trace and one snapshot cover the whole sweep.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.harness.artifacts import ArtifactCache
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
)
from repro.obs import get_registry, get_tracer, reset_registry, reset_tracer


@dataclass
class CellError:
    """A sweep cell that raised: its config plus the formatted traceback."""

    config: ExperimentConfig
    error: str

    def __str__(self) -> str:
        return f"cell {self.config} failed:\n{self.error}"


class SweepError(RuntimeError):
    """Raised by :meth:`SweepExecutor.run` when any cell failed."""

    def __init__(self, failures: Sequence[CellError]) -> None:
        self.failures = list(failures)
        detail = "\n\n".join(str(f) for f in self.failures)
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed:\n{detail}"
        )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg, else ``REPRO_JOBS``, else cpu count."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS")
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"job count must be >= 1, got {jobs}")
    return jobs


# Per-worker state, installed by the pool initializer.  One runner per
# worker process gives each worker in-memory caching across the cells
# it happens to execute; the shared on-disk cache covers the rest.
_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _init_worker(max_instructions: int, cache_root: Optional[str]) -> None:
    global _WORKER_RUNNER
    artifacts = ArtifactCache(cache_root) if cache_root else None
    _WORKER_RUNNER = ExperimentRunner(
        max_instructions=max_instructions, artifacts=artifacts
    )


def _run_cell(indexed_config):
    """Execute one cell in a worker; never raises.

    Returns ``(index, result_or_None, traceback_or_None, obs_payload)``.
    ``obs_payload`` carries the cell's span subtree (durations only, so
    no cross-process clock alignment is needed) and the cell's metrics,
    stage counts included; the executor attaches/merges both so the
    coordinator's telemetry covers every worker.
    Exceptions are formatted in the worker so unpicklable exception
    types cannot poison the pool.
    """
    index, config = indexed_config
    runner = _WORKER_RUNNER
    if runner is None:  # direct call outside a pool (tests)
        raise RuntimeError("worker runner not initialized")
    # Fresh per-cell telemetry: the span tree and metric snapshot this
    # cell ships back must not include earlier cells this worker ran.
    tracer = reset_tracer()
    registry = reset_registry()
    try:
        result = runner.run(config)
        error = None
    except Exception:
        result = None
        error = traceback.format_exc()
    obs_payload = {
        "spans": tracer.to_dict()["spans"],
        "metrics": registry.snapshot(),
    }
    return index, result, error, obs_payload


class SweepExecutor:
    """Maps experiment cells over processes (or serially for 1 job).

    Args:
        jobs: worker count; ``None`` resolves ``REPRO_JOBS`` then
            ``os.cpu_count()``.
        runner: shared runner for the serial path and for callers that
            pre-compute stages (figure 6/7 config builders); created on
            demand.  Workers take its instruction cap.
        artifacts: persistent cache handed to every worker; defaults to
            the runner's.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        runner: Optional[ExperimentRunner] = None,
        artifacts: Optional[ArtifactCache] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        if artifacts is None and runner is not None:
            artifacts = runner.artifacts
        self.artifacts = artifacts
        self.runner = runner or ExperimentRunner(artifacts=artifacts)

    def map(
        self, configs: Sequence[ExperimentConfig]
    ) -> List[Union[ExperimentResult, CellError]]:
        """Run every cell; failures come back as :class:`CellError`.

        The output list is index-aligned with ``configs`` regardless of
        completion order or worker assignment.
        """
        configs = list(configs)
        if not configs:
            return []
        if self.jobs == 1 or len(configs) == 1:
            # Serial cells run on the shared runner, so their spans nest
            # under the coordinator's tracer directly.
            with get_tracer().span("sweep", cells=len(configs), jobs=1):
                return [self._run_serial(config) for config in configs]
        outcomes: List[Union[ExperimentResult, CellError]] = [None] * len(configs)  # type: ignore[list-item]
        cache_root = str(self.artifacts.root) if self.artifacts else None
        tracer = get_tracer()
        registry = get_registry()
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(configs)),
            initializer=_init_worker,
            initargs=(self.runner.max_instructions, cache_root),
        ) as pool, tracer.span(
            "sweep", cells=len(configs), jobs=min(self.jobs, len(configs))
        ):
            # pool.map yields in input order, so attached cell spans are
            # deterministic no matter which worker finished first.
            for index, result, error, obs_payload in pool.map(
                _run_cell, enumerate(configs)
            ):
                for span in tracer.attach(obs_payload):
                    span.meta.setdefault("cell", index)
                registry.merge_snapshot(obs_payload["metrics"])
                if error is not None:
                    outcomes[index] = CellError(config=configs[index], error=error)
                else:
                    outcomes[index] = result
        return outcomes

    def run(
        self, configs: Sequence[ExperimentConfig]
    ) -> List[ExperimentResult]:
        """Like :meth:`map` but raises :class:`SweepError` on failures."""
        outcomes = self.map(configs)
        failures = [o for o in outcomes if isinstance(o, CellError)]
        if failures:
            raise SweepError(failures)
        return outcomes  # type: ignore[return-value]

    def _run_serial(
        self, config: ExperimentConfig
    ) -> Union[ExperimentResult, CellError]:
        try:
            return self.runner.run(config)
        except Exception:
            return CellError(config=config, error=traceback.format_exc())
