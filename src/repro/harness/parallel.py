"""Running sweep cells: the worker count, failures and the process pool.

Sweep cells (one :class:`ExperimentConfig` each) are embarrassingly
parallel: they share read-only inputs and never communicate.
:meth:`ExperimentRunner.run_all
<repro.harness.experiment.ExperimentRunner.run_all>` is the one way to
run a list of them.  With one job or one cell it runs them serially on
the runner itself; otherwise it hands them to :func:`run_pool`, which
maps them over a ``ProcessPoolExecutor``.  Either way:

* results come back in input order, no matter which worker finished
  first;
* a failed cell becomes a :class:`CellError` carrying its config and
  full traceback instead of stopping the sweep, and the runner raises
  one :class:`SweepError` listing every failure once all cells ran.

Cells are deterministic, so the two paths produce identical results
(the serial/parallel equivalence guarantee README.md documents and the
tests pin down).

Worker processes each hold their own :class:`ExperimentRunner`; the
persistent :class:`~repro.harness.artifacts.ArtifactCache` (when
enabled) is what lets them share traces and baselines instead of
re-computing them per process.  Workers ship each cell's span subtree
and metrics snapshot back with its result; the pool attaches the spans
and merges the metrics into the coordinator's tracer and registry, so
one trace and one snapshot cover the whole sweep.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.harness.artifacts import ArtifactCache
from repro.obs import get_registry, get_tracer, reset_registry, reset_tracer

if TYPE_CHECKING:  # import cycle: the runner's run_all calls this module
    from repro.harness.experiment import (
        ExperimentConfig,
        ExperimentResult,
        ExperimentRunner,
    )


@dataclass
class CellError:
    """A sweep cell that raised: its config plus the formatted traceback."""

    config: ExperimentConfig
    error: str

    def __str__(self) -> str:
        return f"cell {self.config} failed:\n{self.error}"


class SweepError(RuntimeError):
    """Raised by :meth:`ExperimentRunner.run_all` when any cell failed."""

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


def run_cell(
    runner: ExperimentRunner, config: ExperimentConfig
) -> Union[ExperimentResult, CellError]:
    """``runner.run(config)``, or the :class:`CellError` it raised."""
    try:
        return runner.run(config)
    except Exception:
        return CellError(config=config, error=traceback.format_exc())


# Per-worker state, installed by the pool initializer.  One runner per
# worker process gives each worker in-memory caching across the cells
# it happens to execute; the shared on-disk cache covers the rest.
_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _init_worker(max_instructions: int, cache_root: Optional[str]) -> None:
    from repro.harness.experiment import ExperimentRunner

    global _WORKER_RUNNER
    artifacts = ArtifactCache(cache_root) if cache_root else None
    _WORKER_RUNNER = ExperimentRunner(
        max_instructions=max_instructions, artifacts=artifacts
    )


def _run_in_worker(config: ExperimentConfig):
    """Execute one cell in a worker; never raises.

    Returns ``(outcome, obs_payload)``: the cell's result or
    :class:`CellError`, and its span subtree (durations only, so no
    cross-process clock alignment is needed) and metrics, stage counts
    included, which :func:`run_pool` attaches and merges so the
    coordinator's telemetry covers every worker.  Exceptions are
    formatted in the worker so unpicklable exception types cannot poison
    the pool.
    """
    runner = _WORKER_RUNNER
    if runner is None:  # direct call outside a pool (tests)
        raise RuntimeError("worker runner not initialized")
    # Fresh per-cell telemetry: the span tree and metric snapshot this
    # cell ships back must not include earlier cells this worker ran.
    tracer = reset_tracer()
    registry = reset_registry()
    outcome = run_cell(runner, config)
    obs_payload = {
        "spans": tracer.to_dict()["spans"],
        "metrics": registry.snapshot(),
    }
    return outcome, obs_payload


def run_pool(
    runner: ExperimentRunner,
    configs: Sequence[ExperimentConfig],
    jobs: int,
) -> List[Union[ExperimentResult, CellError]]:
    """Run ``configs`` over ``jobs`` worker processes, in input order.

    Each worker builds its own runner with ``runner``'s instruction cap
    and artifact cache.
    """
    cache_root = str(runner.artifacts.root) if runner.artifacts else None
    tracer = get_tracer()
    registry = get_registry()
    outcomes: List[Union[ExperimentResult, CellError]] = []
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_worker,
        initargs=(runner.max_instructions, cache_root),
    ) as pool:
        # pool.map yields in input order, so attached cell spans are
        # deterministic no matter which worker finished first.
        for index, (outcome, obs_payload) in enumerate(
            pool.map(_run_in_worker, configs)
        ):
            for span in tracer.attach(obs_payload):
                span.meta.setdefault("cell", index)
            registry.merge_snapshot(obs_payload["metrics"])
            outcomes.append(outcome)
    return outcomes
