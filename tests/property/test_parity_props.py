"""Property test: cross-model timing parity on generated workloads.

Hypothesis drives fuzz-generator workloads through both timing models
across the baseline, pre-execution, and steal-only (overhead-sequence)
variants and asserts the whole parity contract: committed architectural
state and every ``SimStats`` field, cycles included, exactly equal.

Workload construction (generate + functional trace + selection) is
much heavier than the two timing runs, so it is memoized per seed;
hypothesis then explores (seed, mode) combinations cheaply.  Inherits
the ``ci``/``dev`` profiles from ``conftest.py``; the explicit
``max_examples`` override composes with them (the generators here are
markedly heavier than the suite's default).
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.functional import FunctionalSimulator
from repro.fuzz.generator import generate
from repro.model.params import ModelParams, SelectionConstraints
from repro.selection.program_selector import select_pthreads
from repro.timing.config import (
    BASELINE,
    OVERHEAD_SEQUENCE,
    PRE_EXECUTION,
)
from repro.timing.core import TimingSimulator
from repro.timing.eventsim import EventSimulator
from repro.validation.parity import ParityRun, compare_runs

MAX_INSTRUCTIONS = 60_000

MODES = {
    "baseline": BASELINE,
    "pre-exec": PRE_EXECUTION,
    "steal-only": OVERHEAD_SEQUENCE,
}


@functools.lru_cache(maxsize=64)
def workload_and_selection(seed):
    workload = generate(seed)
    func = FunctionalSimulator(workload.program, workload.hierarchy).run(
        max_instructions=MAX_INSTRUCTIONS
    )
    params = ModelParams(
        bw_seq=8,
        unassisted_ipc=1.0,
        mem_latency=workload.hierarchy.mem_latency,
        load_latency=workload.hierarchy.l1.hit_latency,
    )
    selection = select_pthreads(
        workload.program, func.trace, params, SelectionConstraints()
    )
    return workload, tuple(selection.pthreads)


def capture(sim, mode) -> ParityRun:
    stats = sim.run(mode, max_instructions=MAX_INSTRUCTIONS)
    return ParityRun(
        stats=stats.to_dict(),
        registers=list(sim.last_registers),
        memory_words={
            addr: value
            for addr, value in sim.last_memory.snapshot().items()
            if value != 0
        },
    )


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=23),
    mode_name=st.sampled_from(sorted(MODES)),
)
def test_models_agree_exactly(seed, mode_name):
    workload, pthreads = workload_and_selection(seed)
    mode = MODES[mode_name]
    pts = list(pthreads) if (mode.launch and pthreads) else None
    trace_sim = TimingSimulator(
        workload.program, workload.hierarchy, pthreads=pts, engine="interp"
    )
    event_sim = EventSimulator(workload.program, workload.hierarchy, pthreads=pts)
    report = compare_runs(
        capture(trace_sim, mode),
        capture(event_sim, mode),
        workload=workload.name,
        mode=mode.name,
        engine="interp",
    )
    assert report.ok, report.render()
