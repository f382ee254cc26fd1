"""Aggregate advantage: the paper's p-thread evaluation function.

For a candidate static p-thread::

    ADVagg = LTagg − OHagg
    LTagg  = DCpt-cm · LT          (eq. 3)
    OHagg  = DCtrig  · OH          (eq. 2)
    LT     = min(SCDHmt − SCDHpt, Lmem), clamped at 0   (eq. 5)
    OH     = (SIZEpt / BWseq) · (BWseq-mt / BWseq)       (eq. 4)

``SCDHpt`` is computed over the (possibly optimized) body executing
densely at ``BWseq-pt``; ``SCDHmt`` over the *original* computation as
the main thread reaches it, with trigger distances recovered from slice
tree ``DISTpl`` annotations and bandwidth ``BWseq-mt``.

Distance conventions (reverse-engineered to match the paper's worked
example, Figure 2 — candidates 3/4/5 must score LT = 1/3/8):

* p-thread side: the trigger is *not* fetched by the p-thread, so body
  instruction *j* (0-based) has ``DISTtrig = j + 1``;
* main-thread side: the trigger's own fetch consumes a slot, so an
  instruction *k* dynamic instructions after the trigger has
  ``DISTtrig = k + 1``;
* a sequencing constraint is a whole cycle: ``SC = ceil(DIST / BW)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.isa.instruction import Instruction
from repro.model.params import ModelParams
from repro.model.scdh import scdh_input_height
from repro.pthreads.body import PThreadBody, analyze_dataflow


def instruction_latency(inst: Instruction, params: ModelParams) -> int:
    """Model latency of one body instruction.

    Loads are charged :attr:`~repro.model.params.ModelParams.load_latency`
    (the model's estimate for a body load that hits near the core);
    everything else uses its ISA latency.
    """
    if inst.is_load:
        return params.load_latency
    return inst.info.latency


@dataclass(frozen=True)
class CandidateScore:
    """Evaluation of one candidate static p-thread.

    All "agg" quantities are aggregated over the program sample that
    produced the statistics, in cycles.
    """

    trigger_pc: int
    load_pc: int
    depth: int
    size: int
    dc_trig: int
    dc_pt_cm: int
    scdh_mt: float
    scdh_pt: float
    lt: float
    oh: float

    @property
    def lt_agg(self) -> float:
        return self.dc_pt_cm * self.lt

    @property
    def oh_agg(self) -> float:
        return self.dc_trig * self.oh

    @property
    def adv_agg(self) -> float:
        return self.lt_agg - self.oh_agg

    def describe(self) -> str:
        return (
            f"trigger=#{self.trigger_pc:04d} depth={self.depth} "
            f"size={self.size} DCtrig={self.dc_trig} "
            f"DCpt-cm={self.dc_pt_cm} SCDHmt={self.scdh_mt:.1f} "
            f"SCDHpt={self.scdh_pt:.1f} LT={self.lt:.2f} OH={self.oh:.3f} "
            f"ADVagg={self.adv_agg:.1f}"
        )


def pthread_scdh(body: PThreadBody, params: ModelParams, target: Optional[int] = None) -> float:
    """``SCDHpt``: input height of the body's target load.

    The body executes densely: instruction *j* has trigger distance
    ``j + 1`` and is sequenced at ``(j + 1) / BWseq-pt``.
    """
    n = body.size
    sc = [math.ceil((j + 1) / params.bw_seq_pt) for j in range(n)]
    latencies = [
        instruction_latency(inst, params) for inst in body.instructions
    ]
    deps = [body.dataflow.producers(j) for j in range(n)]
    return scdh_input_height(sc, latencies, deps, target=target)


def main_thread_scdh(
    instructions: Sequence[Instruction],
    mt_distances: Sequence[float],
    params: ModelParams,
) -> float:
    """``SCDHmt``: input height of the problem load in the main thread.

    Args:
        instructions: the *original* computation (oldest first, problem
            load last).
        mt_distances: per instruction, its ``DISTtrig`` in the main
            thread — dynamic instructions from the trigger, *inclusive*
            of the trigger's own fetch slot (an instruction k dynamic
            instructions after the trigger has distance k + 1).
    """
    n = len(instructions)
    if len(mt_distances) != n:
        raise ValueError("distance vector must match instruction count")
    dataflow = analyze_dataflow(instructions)
    sc = [math.ceil(mt_distances[j] / params.bw_seq_mt) for j in range(n)]
    latencies = [instruction_latency(inst, params) for inst in instructions]
    deps = [dataflow.producers(j) for j in range(n)]
    return scdh_input_height(sc, latencies, deps)


def evaluate_candidate(
    trigger_pc: int,
    load_pc: int,
    depth: int,
    original: Sequence[Instruction],
    mt_distances: Sequence[float],
    executed_body: PThreadBody,
    dc_trig: int,
    dc_pt_cm: int,
    params: ModelParams,
) -> CandidateScore:
    """Score one candidate.

    Args:
        original: the un-optimized computation (for the main-thread
            side — the main thread always executes the original code).
        mt_distances: main-thread ``DISTtrig`` of each original
            instruction.
        executed_body: the body the p-thread would actually execute
            (optimized when optimization is enabled, otherwise equal to
            the original).
        dc_trig: dynamic executions of the trigger in the sample.
        dc_pt_cm: dynamic misses this candidate pre-executes.
    """
    scdh_mt = main_thread_scdh(original, mt_distances, params)
    scdh_pt = pthread_scdh(executed_body, params)
    tolerance = scdh_mt - scdh_pt
    lt = max(0.0, min(tolerance, float(params.mem_latency)))
    oh = executed_body.size * params.overhead_per_instruction()
    return CandidateScore(
        trigger_pc=trigger_pc,
        load_pc=load_pc,
        depth=depth,
        size=executed_body.size,
        dc_trig=dc_trig,
        dc_pt_cm=dc_pt_cm,
        scdh_mt=scdh_mt,
        scdh_pt=scdh_pt,
        lt=lt,
        oh=oh,
    )
