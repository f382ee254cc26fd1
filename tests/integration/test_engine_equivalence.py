"""Differential equivalence: the tiered engine vs. the interpreter.

The timing simulator's tiered engine is an optimization, not a second
model: for every bundled workload it must reproduce the interpreter's
results bit for bit — every timing-simulator counter, in every
simulation mode.  It compiles the whole program before the first
instruction, so every generated block it runs is checked here.  These
tests are the contract that keeps the engines pinned together.

The functional simulator has one engine (DESIGN.md §6).  It is pinned
instead to the results its interpreter and its former tiered engine
both produced, as digests of ``FunctionalResult.to_dict()``.
"""

import hashlib
import json

import pytest

from repro.engine.compiler import ENGINE_INTERP, ENGINE_TIERED
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
            workload.program, workload.hierarchy
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


#: sha256 of ``json.dumps(FunctionalResult.to_dict(), sort_keys=True)``
#: for a traced run of each workload's train input, recorded while the
#: interpreter and both tiered columns produced them bit for bit.  A
#: deliberate change to a workload or to the trace format updates its
#: digest here.
FUNCTIONAL_DIGESTS = {
    "bzip2": "5bf3166f23145e8d8d820017c0c9b1369f2f8120a6301f00259c93e7d8e8927b",
    "crafty": "684e6c49eea2f46b2b0a4d8ea250619c49bf18eb83da1cde58d87e1e2b4a3b28",
    "gap": "8c170c3cbd96ac5101193c903a11f2c0467a38f04c00d9a022aa3cc71d33ca09",
    "gcc": "bda91288c9c162ae645f87926571b0e1ba103b0e962d1287799ae0319679835d",
    "mcf": "34fa8cd7d551b55a456183d942e136e7e6c372bef5b876c26ca08a2dae494f90",
    "parser": "c1b96dff35fa8862fa11ada1e920576e92062b144e14bd1673388580ba009e9c",
    "pharmacy": "19835d860da9c59ebabe354fbf76e681337011e76f9b4d9320702a53d05e0c32",
    "twolf": "1cb9304ff61e4eb08e2717f21a829360477d4aa928fdf1bce6892e5d291dc7c6",
    "vortex": "f5c14e58831f278a954ce3ce4c9734ceab0fee27b0a8dba7ff1b71158019cd3e",
    "vpr.p": "9be3ffc3e56abf95d9e148bda751b1a587179a98ae1923f089db9517960b606f",
    "vpr.r": "722515c31b20636970d7c6f2875944f73dec6dc9eaa676d260211b05e47da23d",
}


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_functional_results_bit_identical(name):
    workload = _workload(name)
    result = FunctionalSimulator(workload.program, workload.hierarchy).run()
    text = json.dumps(result.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        FUNCTIONAL_DIGESTS[name]
    )


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_functional_no_trace_bit_identical(name):
    # Tracing records the run and must not change it: a traceless run
    # equals the traced one in everything but the trace.
    workload = _workload(name)
    sim = FunctionalSimulator(workload.program, workload.hierarchy)
    traced = sim.run().to_dict()
    traced.update(trace=None, traced_instructions=0)
    untraced = sim.run(collect_trace=False).to_dict()
    assert untraced == traced, _diff(traced, untraced)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_timing_stats_bit_identical_across_modes(name):
    workload = _workload(name)
    pthreads = _selected_pthreads(name)
    for mode in MODES:
        stats = {}
        for engine in (ENGINE_INTERP, ENGINE_TIERED):
            sim = TimingSimulator(
                workload.program,
                workload.hierarchy,
                pthreads=pthreads,
                engine=engine,
            )
            stats[engine] = sim.run(mode).to_dict()
            assert sim.last_engine == engine
        assert sim.last_tier["compiled_blocks"] > 0
        assert stats[ENGINE_INTERP] == stats[ENGINE_TIERED], (
            mode.name,
            _diff(stats[ENGINE_INTERP], stats[ENGINE_TIERED]),
        )
