"""Differential equivalence: the tiered engine vs. the interpreter.

The tiered engine is an optimization, not a second model: for every
bundled workload it must reproduce the interpreter's results bit for
bit — the packed functional trace, every statistic, every
timing-simulator counter, in every simulation mode.  It is checked in
two columns: ``tiered`` at the default threshold, and ``eager``
(``REPRO_TIER_THRESHOLD=0``), which compiles the whole program before
the first instruction so every generated block runs.  These tests are
the contract that keeps the engines pinned together.
"""

import pytest

from repro.engine.compiler import (
    ENGINE_INTERP,
    ENGINE_TIERED,
    TIER_ENV,
)
from repro.engine.functional import FunctionalSimulator
from repro.model.params import ModelParams
from repro.selection.program_selector import select_pthreads
from repro.timing.config import (
    BASELINE,
    OVERHEAD_SEQUENCE,
    PERFECT_L2,
    PRE_EXECUTION,
)
from repro.timing.core import TimingSimulator
from repro.workloads.suite import SUITE, build

ALL_WORKLOADS = list(SUITE) + ["pharmacy"]

#: p-thread-bearing modes exercised per workload: with launches
#: (steal + execute + prefetch), steal-only overhead accounting, and
#: the perfect-L2 bound (no launches, different hierarchy behavior).
MODES = (BASELINE, PRE_EXECUTION, OVERHEAD_SEQUENCE, PERFECT_L2)

_CACHE = {}


def _workload(name):
    if name not in _CACHE:
        _CACHE[name] = build(name)
    return _CACHE[name]


def _selected_pthreads(name):
    """Real selected p-threads for ``name`` (memoized per session)."""
    key = ("pthreads", name)
    if key not in _CACHE:
        workload = _workload(name)
        result = FunctionalSimulator(
            workload.program, workload.hierarchy, engine=ENGINE_INTERP
        ).run()
        params = ModelParams(
            bw_seq=8,
            unassisted_ipc=1.0,
            mem_latency=workload.hierarchy.mem_latency,
            load_latency=workload.hierarchy.l1.hit_latency,
        )
        selection = select_pthreads(workload.program, result.trace, params)
        _CACHE[key] = selection.pthreads
    return _CACHE[key]


def _diff(a, b):
    return {k: (a[k], b[k]) for k in a if a[k] != b[k]}


#: (column, engine, REPRO_TIER_THRESHOLD or None for the default).
COLUMNS = (
    ("interp", ENGINE_INTERP, None),
    ("tiered", ENGINE_TIERED, None),
    ("eager", ENGINE_TIERED, "0"),
)


def _in_column(monkeypatch, engine, threshold):
    if threshold is None:
        monkeypatch.delenv(TIER_ENV, raising=False)
    else:
        monkeypatch.setenv(TIER_ENV, threshold)
    return engine


def _assert_eager_compiled_everything(sim, column):
    if column == "eager":
        assert sim.last_tier["interp_blocks"] == 0
        assert sim.last_tier["compiled_blocks"] > 0


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_functional_results_bit_identical(name, monkeypatch):
    workload = _workload(name)
    results = {}
    for column, engine, threshold in COLUMNS:
        sim = FunctionalSimulator(
            workload.program,
            workload.hierarchy,
            engine=_in_column(monkeypatch, engine, threshold),
        )
        results[column] = sim.run().to_dict()
        assert sim.last_engine == engine
        _assert_eager_compiled_everything(sim, column)
    for column in ("tiered", "eager"):
        assert results["interp"] == results[column], (
            column,
            _diff(results["interp"], results[column]),
        )


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_functional_no_trace_bit_identical(name, monkeypatch):
    workload = _workload(name)
    results = {}
    for column, engine, threshold in COLUMNS:
        sim = FunctionalSimulator(
            workload.program,
            workload.hierarchy,
            engine=_in_column(monkeypatch, engine, threshold),
        )
        results[column] = sim.run(collect_trace=False).to_dict()
        assert sim.last_engine == engine
        _assert_eager_compiled_everything(sim, column)
    for column in ("tiered", "eager"):
        assert results["interp"] == results[column], column


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_timing_stats_bit_identical_across_modes(name, monkeypatch):
    workload = _workload(name)
    pthreads = _selected_pthreads(name)
    for mode in MODES:
        stats = {}
        for column, engine, threshold in COLUMNS:
            sim = TimingSimulator(
                workload.program,
                workload.hierarchy,
                pthreads=pthreads,
                engine=_in_column(monkeypatch, engine, threshold),
            )
            stats[column] = sim.run(mode).to_dict()
            assert sim.last_engine == engine
            _assert_eager_compiled_everything(sim, column)
        for column in ("tiered", "eager"):
            assert stats["interp"] == stats[column], (
                mode.name,
                column,
                _diff(stats["interp"], stats[column]),
            )
