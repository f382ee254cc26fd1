"""Timing-engine speed benchmark: the tiered engine against the interpreter.

Measures how fast the timing simulator simulates — million simulated
instructions per second (MIPS) — under each of its two engines, in
BASELINE mode.  Written to ``results/BENCH_simspeed.json`` by
``python -m repro bench speed`` so engine regressions show up in
review.

The engines run in alternating pairs.  Per workload, each engine runs
once untimed (compile, allocator warm-up); then each of ``repeats``
rounds times one interpreter run and one tiered run back to back.  A
pair's ratio is the interpreter's seconds over the tiered engine's, so
a change in host speed that spans the pair slows both runs and cancels
out.  The floor reads the median of every pair's ratio, pooled over
all workloads.  Each engine's MIPS is its best round: the steady-state
speed, least disturbed by the host.  The functional simulator has one
engine, so it is not measured here.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.compiler import ENGINE_INTERP, ENGINE_TIERED
from repro.timing.config import BASELINE
from repro.timing.core import TimingSimulator
from repro.workloads.suite import SUITE, build

ENGINES = (ENGINE_INTERP, ENGINE_TIERED)

#: The median per-pair ratio the tiered engine must reach.
FLOOR = 1.0


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _mips(instructions: int, seconds: float) -> float:
    if seconds <= 0 or not instructions:
        return 0.0
    return instructions / seconds / 1e6


def _paired_seconds(
    runs: Dict[str, Callable[[], int]], repeats: int
) -> Tuple[Dict[str, List[float]], int]:
    """Time ``repeats`` rounds of every engine's ``run()``, alternating.

    ``run`` executes one full simulation and returns the number of
    instructions it simulated.  One untimed warm-up call per engine
    comes first.  Each round then times the engines in
    :data:`ENGINES` order, back to back.  Returns each engine's
    seconds, one per round, and the instruction count.
    """
    instructions = 0
    for engine in ENGINES:
        instructions = runs[engine]()
    seconds: Dict[str, List[float]] = {engine: [] for engine in ENGINES}
    for _ in range(repeats):
        for engine in ENGINES:
            start = time.perf_counter()
            instructions = runs[engine]()
            seconds[engine].append(time.perf_counter() - start)
    return seconds, instructions


def measure_timing(
    workload_name: str,
    repeats: int = 3,
    max_instructions: int = 50_000_000,
) -> Tuple[Dict[str, float], List[float]]:
    """Paired BASELINE runs of one workload under both engines.

    Returns each engine's best-round MIPS and every pair's ratio
    (interpreter seconds over tiered seconds).
    """
    workload = build(workload_name)
    runs = {}
    for engine in ENGINES:
        sim = TimingSimulator(
            workload.program, workload.hierarchy, engine=engine
        )
        runs[engine] = lambda sim=sim: sim.run(
            BASELINE, max_instructions=max_instructions
        ).instructions
    return _summarize(*_paired_seconds(runs, repeats))


def _summarize(
    seconds: Dict[str, List[float]], instructions: int
) -> Tuple[Dict[str, float], List[float]]:
    """Each engine's best-round MIPS, and every pair's ratio."""
    mips = {
        engine: _mips(instructions, min(seconds[engine]))
        for engine in ENGINES
    }
    ratios = [
        interp / tiered if tiered > 0 else 0.0
        for interp, tiered in zip(
            seconds[ENGINE_INTERP], seconds[ENGINE_TIERED]
        )
    ]
    return mips, ratios


def bench_speed(
    workloads: Optional[Sequence[str]] = None,
    repeats: int = 3,
    max_instructions: int = 50_000_000,
) -> Dict:
    """Run the timing-engine benchmark; returns the payload."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    names: List[str] = list(workloads) if workloads else list(SUITE)
    timing: Dict[str, Dict[str, float]] = {engine: {} for engine in ENGINES}
    pairs: Dict[str, List[float]] = {}
    for name in names:
        mips, pairs[name] = measure_timing(name, repeats, max_instructions)
        for engine in ENGINES:
            timing[engine][name] = mips[engine]
    return {
        "workloads": names,
        "repeats": repeats,
        "max_instructions": max_instructions,
        "unit": (
            "million simulated instructions per second "
            "(best of paired rounds)"
        ),
        "timing_baseline": timing,
        "timing_baseline_geomean": {
            engine: geomean(list(timing[engine].values()))
            for engine in ENGINES
        },
        "timing_baseline_pairs": pairs,
        "tiered_median_pair_ratio": statistics.median(
            ratio for ratios in pairs.values() for ratio in ratios
        ),
    }


def check_payload(payload: Dict) -> List[str]:
    """The speed floor over a benchmark payload; returns violations.

    The median per-pair ratio must reach :data:`FLOOR`: the tiered
    engine may not be slower than the interpreter it exists to beat.
    Pairing is what lets the floor gate the engine rather than the
    host: each ratio compares two runs taken back to back.
    """
    ratio = payload["tiered_median_pair_ratio"]
    if ratio < FLOOR:
        return [
            f"timing baseline: tiered slower than interpreter "
            f"(median pair ratio {ratio:.2f}x < {FLOOR:.1f}x)"
        ]
    return []


def render(payload: Dict) -> str:
    """Fixed-width summary of a benchmark payload."""
    title = "Timing engine speed (MIPS, baseline, best of paired rounds)"
    lines = [title, "=" * len(title)]
    timing = payload["timing_baseline"]
    for name in payload["workloads"]:
        ratios = " ".join(
            f"{r:.2f}x" for r in payload["timing_baseline_pairs"][name]
        )
        lines.append(
            f"{name:<18} interp {timing[ENGINE_INTERP][name]:6.2f}  "
            f"tiered {timing[ENGINE_TIERED][name]:6.2f}  pairs {ratios}"
        )
    summary = payload["timing_baseline_geomean"]
    lines.append(
        f"timing/baseline    interp {summary[ENGINE_INTERP]:6.2f}  "
        f"tiered {summary[ENGINE_TIERED]:6.2f}  "
        f"median pair ratio {payload['tiered_median_pair_ratio']:.2f}x"
    )
    return "\n".join(lines)


def write_results(payload: Dict, path) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
