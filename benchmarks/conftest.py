"""Shared benchmark fixtures.

One :class:`~repro.harness.experiment.ExperimentRunner` is shared by
every bench module so traces and baselines are computed once per
(workload, input, hierarchy, machine) across the whole session, and its
``run_all`` fans sweep cells out over ``REPRO_JOBS`` worker processes
(Table 1 runs its stages on the runner itself).  The persistent
artifact cache (default ``~/.cache/repro``) makes stage outputs survive
across sessions and lets parallel workers share work; after the session
a stage-timing / cache-effectiveness report is written to
``results/perf_harness.txt`` from the session's spans and metrics.

Environment knobs:
    REPRO_BENCH_WORKLOADS  comma-separated subset of the suite (default
                           all ten benchmarks).
    REPRO_JOBS             sweep worker processes (default: CPU count;
                           1 forces the serial path).
    REPRO_CACHE_DIR        persistent cache root; ``off`` disables it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.experiment import ExperimentRunner
from repro.harness.parallel import resolve_jobs
from repro.harness.report import render_perf
from repro.obs import get_registry, get_tracer
from repro.workloads.suite import SUITE

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def artifacts():
    return ArtifactCache.from_env()


@pytest.fixture(scope="session")
def runner(artifacts) -> ExperimentRunner:
    return ExperimentRunner(artifacts=artifacts, jobs=resolve_jobs())


@pytest.fixture(scope="session", autouse=True)
def _perf_report(runner):
    """Write the session's harness-performance report on teardown.

    Read from the process-wide span tree and metrics registry, which
    the session's runner and its sweep workers feed.
    """
    yield
    RESULTS_DIR.mkdir(exist_ok=True)
    report = render_perf(
        get_tracer().root,
        get_registry().snapshot(),
        title="Harness performance (bench session: stage span seconds "
        "and cache hits)",
    )
    (RESULTS_DIR / "perf_harness.txt").write_text(report + "\n")


@pytest.fixture(scope="session")
def workloads() -> list:
    requested = os.environ.get("REPRO_BENCH_WORKLOADS")
    if not requested:
        return list(SUITE)
    names = [name.strip() for name in requested.split(",") if name.strip()]
    unknown = set(names) - set(SUITE) - {"pharmacy"}
    if unknown:
        raise ValueError(f"unknown workloads: {sorted(unknown)}")
    return names


@pytest.fixture(scope="session")
def save_report():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _save


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
