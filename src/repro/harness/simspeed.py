"""Simulation-speed benchmark: engine throughput and wall-clock.

Measures how fast the simulators simulate — million simulated
instructions per second (MIPS) — for all three execution engines (the
compiled basic-block engine, the tiered engine, and the reference
interpreter), plus the end-to-end wall-clock of a cold Table 2
regeneration.  Written to ``results/BENCH_simspeed.json`` by
``python -m repro bench speed`` so engine regressions show up in
review.

Throughput is steady-state: each (simulator, engine, config) cell runs
once to warm the per-program compile cache, then takes the best of
``repeats`` timed runs.  The functional simulator is measured in three
configurations because its costs are layered — ``exec`` (no cache
model, no trace — pure architectural execution, where the compiled
engine's advantage is largest), ``cached`` (with the functional cache
hierarchy), and ``traced`` (hierarchy plus dependence-trace
collection, the configuration the selection pipeline uses).  The
timing simulator is measured in its BASELINE mode.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.compiler import (
    ENGINE_COMPILED,
    ENGINE_ENV,
    ENGINE_INTERP,
    ENGINE_TIERED,
)
from repro.engine.functional import FunctionalSimulator
from repro.timing.config import BASELINE
from repro.timing.core import TimingSimulator
from repro.workloads.suite import SUITE, build

ENGINES = (ENGINE_INTERP, ENGINE_COMPILED, ENGINE_TIERED)

#: Functional-simulator configurations: name -> (caching, tracing).
FUNCTIONAL_CONFIGS = {
    "exec": (False, False),
    "cached": (True, False),
    "traced": (True, True),
}


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _steady_mips(run, repeats: int) -> float:
    """Best-of-``repeats`` steady-state throughput of ``run()``.

    ``run`` executes one full simulation and returns the number of
    instructions it simulated.  The warm-up call (compile, allocator
    warm-up) is not timed.
    """
    instructions = run()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        instructions = run()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    if best <= 0 or not instructions:
        return 0.0
    return instructions / best / 1e6


def measure_functional(
    workload_name: str,
    engine: str,
    config: str,
    repeats: int = 3,
    max_instructions: int = 50_000_000,
) -> float:
    """Steady-state functional-simulation MIPS for one cell."""
    caching, tracing = FUNCTIONAL_CONFIGS[config]
    workload = build(workload_name)
    sim = FunctionalSimulator(
        workload.program,
        workload.hierarchy if caching else None,
        engine=engine,
    )

    def run() -> int:
        result = sim.run(
            max_instructions=max_instructions, collect_trace=tracing
        )
        return result.instructions

    mips = _steady_mips(run, repeats)
    if sim.last_engine != engine:  # compile fallback: label honestly
        return 0.0
    return mips


def measure_timing(
    workload_name: str,
    engine: str,
    repeats: int = 3,
    max_instructions: int = 50_000_000,
) -> float:
    """Steady-state BASELINE timing-simulation MIPS for one cell."""
    workload = build(workload_name)
    sim = TimingSimulator(workload.program, workload.hierarchy, engine=engine)

    def run() -> int:
        return sim.run(BASELINE, max_instructions=max_instructions).instructions

    mips = _steady_mips(run, repeats)
    if sim.last_engine != engine:
        return 0.0
    return mips


#: Span names of the pipeline stages an execution engine can affect:
#: the functional trace and every timing simulation.  ``validation``
#: holds the overhead-only and latency-only re-simulations of a
#: validated cell, and the perfect-L2 run.  Everything else in a
#: Table 2 run — slice-tree construction, candidate selection,
#: p-thread verification — is engine-independent analysis.  No span
#: named here nests inside another, so durations add up without
#: double counting.
SIM_STAGES = frozenset({"trace", "baseline", "timing", "validation"})


def stage_seconds(span: Dict, names: frozenset) -> float:
    """Total duration of the spans named in ``names`` within ``span``'s
    exported subtree (``{"name", "duration", "children"}`` dicts)."""
    total = 0.0
    if span.get("name") in names:
        total += span.get("duration", 0.0)
    for child in span.get("children", ()):
        total += stage_seconds(child, names)
    return total


def _table2_once(workloads: Sequence[str], engine: str) -> Tuple[float, float]:
    """One cold (cache-less) Table 2 over ``workloads``.

    Returns ``(total_seconds, sim_seconds)``: the end-to-end
    wall-clock and the portion spent in the simulation stages
    (:data:`SIM_STAGES`, read from a private span tracer).  Cold
    means *fully* cold: the harness artifact cache is bypassed and the
    codegen cache — persistent and in-process — is cleared, so every
    engine pays its real start-up cost.
    """
    from repro.engine.codecache import reset_code_cache
    from repro.harness.parallel import SweepExecutor
    from repro.harness.tables import table2
    from repro.obs import Tracer, get_tracer, set_tracer

    previous = {
        name: os.environ.get(name) for name in (ENGINE_ENV, "REPRO_CACHE_DIR")
    }
    os.environ[ENGINE_ENV] = engine
    os.environ["REPRO_CACHE_DIR"] = "off"
    reset_code_cache()
    outer_tracer = get_tracer()
    tracer = Tracer()
    set_tracer(tracer)
    try:
        executor = SweepExecutor(jobs=1, artifacts=None)
        start = time.perf_counter()
        table2(workloads=list(workloads), executor=executor)
        total = time.perf_counter() - start
    finally:
        set_tracer(outer_tracer)
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        reset_code_cache()
    sim = sum(
        stage_seconds(span, SIM_STAGES)
        for span in tracer.to_dict()["spans"]
    )
    return total, sim


def _table2_seconds(
    workloads: Sequence[str], rounds: int = 2
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Best-of-``rounds`` cold Table 2 per engine: totals + sim stages.

    Rounds are interleaved (interp, compiled, tiered, interp, ...) so
    a load spike on a shared machine hurts every engine instead of
    whichever one happened to run during it.  The sim-stage seconds
    are taken from the same round as each engine's best total, so the
    two numbers describe one run.
    """
    best = {engine: float("inf") for engine in ENGINES}
    best_sim = {engine: float("inf") for engine in ENGINES}
    for _ in range(rounds):
        for engine in ENGINES:
            elapsed, sim = _table2_once(workloads, engine)
            if elapsed < best[engine]:
                best[engine] = elapsed
                best_sim[engine] = sim
    return best, best_sim


def bench_speed(
    workloads: Optional[Sequence[str]] = None,
    repeats: int = 3,
    max_instructions: int = 50_000_000,
    table2: bool = True,
) -> Dict:
    """Run the full simulation-speed benchmark; returns the payload."""
    names: List[str] = list(workloads) if workloads else list(SUITE)
    functional: Dict[str, Dict[str, Dict[str, float]]] = {}
    functional_geomean: Dict[str, Dict[str, float]] = {}
    for config in FUNCTIONAL_CONFIGS:
        functional[config] = {}
        for engine in ENGINES:
            functional[config][engine] = {
                name: measure_functional(
                    name, engine, config, repeats, max_instructions
                )
                for name in names
            }
        summary = {
            engine: geomean(list(functional[config][engine].values()))
            for engine in ENGINES
        }
        interp = summary[ENGINE_INTERP]
        summary["ratio"] = (
            summary[ENGINE_COMPILED] / interp if interp else 0.0
        )
        summary["tiered_ratio"] = (
            summary[ENGINE_TIERED] / interp if interp else 0.0
        )
        functional_geomean[config] = summary

    timing: Dict[str, Dict[str, float]] = {}
    for engine in ENGINES:
        timing[engine] = {
            name: measure_timing(name, engine, repeats, max_instructions)
            for name in names
        }
    timing_geomean = {
        engine: geomean(list(timing[engine].values())) for engine in ENGINES
    }
    interp = timing_geomean[ENGINE_INTERP]
    timing_geomean["ratio"] = (
        timing_geomean[ENGINE_COMPILED] / interp if interp else 0.0
    )
    timing_geomean["tiered_ratio"] = (
        timing_geomean[ENGINE_TIERED] / interp if interp else 0.0
    )

    payload: Dict = {
        "workloads": names,
        "repeats": repeats,
        "max_instructions": max_instructions,
        "unit": "million simulated instructions per second (steady state)",
        "functional": functional,
        "functional_geomean": functional_geomean,
        "timing_baseline": timing,
        "timing_baseline_geomean": timing_geomean,
    }
    if table2:
        seconds, sim_seconds = _table2_seconds(names)
        compiled = seconds[ENGINE_COMPILED]
        tiered = seconds[ENGINE_TIERED]
        sim_compiled = sim_seconds[ENGINE_COMPILED]
        sim_tiered = sim_seconds[ENGINE_TIERED]
        payload["table2_cold"] = {
            "workloads": names,
            "seconds": seconds,
            "sim_seconds": sim_seconds,
            "speedup": (
                seconds[ENGINE_INTERP] / compiled if compiled else 0.0
            ),
            "tiered_speedup": (
                seconds[ENGINE_INTERP] / tiered if tiered else 0.0
            ),
            "sim_speedup": (
                sim_seconds[ENGINE_INTERP] / sim_compiled
                if sim_compiled
                else 0.0
            ),
            "tiered_sim_speedup": (
                sim_seconds[ENGINE_INTERP] / sim_tiered
                if sim_tiered
                else 0.0
            ),
        }
    return payload


def check_payload(payload: Dict) -> List[str]:
    """Regression gates over a benchmark payload; returns violations.

    * compiled functional throughput must be at least 2x the
      interpreter on the pure-execution configuration (geomean);
    * the vectorized traced path must hold at least 1.5x on the
      traced configuration (geomean);
    * neither the compiled nor the tiered engine may be slower than
      the interpreter on any configuration's geomean (functional or
      timing);
    * when the cold Table 2 measurement is present, the tiered engine
      must never lose the end-to-end wall-clock to the interpreter —
      the cold-start gate: tiering plus the compile memo must erase
      the compile-everything-first regression (the PR 3 compiled
      engine lost this comparison at 0.90x).  No larger multiple is
      enforced, deliberately: a Table 2 run is dominated by
      engine-independent analysis (slice trees, selection, p-thread
      optimization) and by timing code every engine shares (the
      memory hierarchy, the predictor, p-thread launches; DESIGN §6),
      and its simulation stages are short cold runs where tiering's
      whole job is to not pay compile cost — measured
      sim-stage ratios hover near 1.0x with high variance, so a floor
      above parity would gate on noise.  ``sim_seconds`` /
      ``sim_speedup`` stay in the payload as diagnostics.
    """
    problems: List[str] = []
    exec_ratio = payload["functional_geomean"]["exec"]["ratio"]
    if exec_ratio < 2.0:
        problems.append(
            f"functional exec speedup {exec_ratio:.2f}x < 2.0x"
        )
    traced_ratio = payload["functional_geomean"]["traced"]["ratio"]
    if traced_ratio < 1.5:
        problems.append(
            f"functional traced speedup {traced_ratio:.2f}x < 1.5x"
        )
    for config, summary in payload["functional_geomean"].items():
        if summary["ratio"] < 1.0:
            problems.append(
                f"functional {config}: compiled slower than interpreter "
                f"({summary['ratio']:.2f}x)"
            )
        if summary["tiered_ratio"] < 1.0:
            problems.append(
                f"functional {config}: tiered slower than interpreter "
                f"({summary['tiered_ratio']:.2f}x)"
            )
    timing_summary = payload["timing_baseline_geomean"]
    if timing_summary["ratio"] < 1.0:
        problems.append(
            f"timing baseline: compiled slower than interpreter "
            f"({timing_summary['ratio']:.2f}x)"
        )
    if timing_summary["tiered_ratio"] < 1.0:
        problems.append(
            f"timing baseline: tiered slower than interpreter "
            f"({timing_summary['tiered_ratio']:.2f}x)"
        )
    table = payload.get("table2_cold")
    if table is not None and table["tiered_speedup"] < 1.0:
        problems.append(
            f"table2 cold: tiered slower than interpreter end to "
            f"end ({table['tiered_speedup']:.2f}x)"
        )
    return problems


def render(payload: Dict) -> str:
    """Fixed-width summary of a benchmark payload."""
    title = "Simulation speed (MIPS, steady state)"
    lines = [title, "=" * len(title)]
    for config, summary in payload["functional_geomean"].items():
        lines.append(
            f"functional/{config:<7} interp {summary[ENGINE_INTERP]:6.2f}  "
            f"compiled {summary[ENGINE_COMPILED]:6.2f} "
            f"({summary['ratio']:.2f}x)  "
            f"tiered {summary[ENGINE_TIERED]:6.2f} "
            f"({summary['tiered_ratio']:.2f}x)"
        )
    summary = payload["timing_baseline_geomean"]
    lines.append(
        f"timing/baseline    interp {summary[ENGINE_INTERP]:6.2f}  "
        f"compiled {summary[ENGINE_COMPILED]:6.2f} "
        f"({summary['ratio']:.2f}x)  "
        f"tiered {summary[ENGINE_TIERED]:6.2f} "
        f"({summary['tiered_ratio']:.2f}x)"
    )
    table = payload.get("table2_cold")
    if table:
        lines.append(
            f"table2 cold        interp "
            f"{table['seconds'][ENGINE_INTERP]:6.1f}s  compiled "
            f"{table['seconds'][ENGINE_COMPILED]:6.1f}s "
            f"({table['speedup']:.2f}x)  tiered "
            f"{table['seconds'][ENGINE_TIERED]:6.1f}s "
            f"({table['tiered_speedup']:.2f}x)"
        )
        lines.append(
            f"table2 cold (sim)  interp "
            f"{table['sim_seconds'][ENGINE_INTERP]:6.1f}s  compiled "
            f"{table['sim_seconds'][ENGINE_COMPILED]:6.1f}s "
            f"({table['sim_speedup']:.2f}x)  tiered "
            f"{table['sim_seconds'][ENGINE_TIERED]:6.1f}s "
            f"({table['tiered_sim_speedup']:.2f}x)"
        )
    return "\n".join(lines)


def write_results(payload: Dict, path) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
