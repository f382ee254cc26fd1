"""Branch pre-execution: p-thread selection for problem branches.

The paper's footnote 1: "Pre-execution has also been proposed as a way
of dealing with problem (i.e., frequently mis-predicted) branches.
While we do not explicitly discuss branch pre-execution here, all of
our methods do apply in that scenario."  This module applies them:

* a *problem branch* is a static conditional branch the front-end
  predictor mispredicts often;
* the candidate space is the same slice tree, built from the backward
  slices of *mispredicted dynamic branch instances* (a branch's slice
  is its operands' computation — branches produce no register, so
  trees never contain other branches);
* the evaluation function is aggregate advantage verbatim, with one
  reinterpretation: the latency there is to tolerate per covered event
  is the **misprediction penalty**, not the memory latency — so
  selection runs with ``Lmem = mispredict_penalty``;
* at run time a branch p-thread ends in the targeted conditional
  branch; its early-computed outcome is posted as a *hint* that lets
  the fetch engine skip the redirect penalty when it matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine.trace import Trace
from repro.frontend.branch_predictor import HybridPredictor
from repro.isa.opcodes import Format
from repro.isa.program import Program
from repro.model.params import ModelParams, SelectionConstraints
from repro.selection.program_selector import (
    ProgramSelection,
    _dc_trig_counts,
    _prediction,
    _select_trees,
    slice_tree_depth,
)
from repro.slicing.slice_tree import build_slice_trees_for_roots


@dataclass(frozen=True)
class BranchProfile:
    """Misprediction statistics for one static conditional branch."""

    pc: int
    executions: int
    mispredictions: int
    mispredicted_indices: Tuple[int, ...]

    @property
    def rate(self) -> float:
        if not self.executions:
            return 0.0
        return self.mispredictions / self.executions


def profile_branches(
    trace: Trace, program: Program, predictor: Optional[HybridPredictor] = None
) -> Dict[int, BranchProfile]:
    """Replay a trace's conditional branches through the predictor.

    Returns per-PC misprediction statistics, including the dynamic
    indices of mispredicted instances — the roots for slice-tree
    construction.  Only conditional branches are profiled (direct jumps
    never mispredict; indirect-jump targets are not in the trace).
    """
    predictor = predictor or HybridPredictor()
    conditional = {
        inst.pc: int(inst.target)
        for inst in program.instructions
        if inst.op.info.fmt is Format.BRANCH
    }
    executions: Dict[int, int] = {}
    mispredicted: Dict[int, List[int]] = {}
    pcs = trace.pc
    takens = trace.taken
    for index in range(len(trace)):
        pc = int(pcs[index])
        target = conditional.get(pc)
        if target is None:
            continue
        executions[pc] = executions.get(pc, 0) + 1
        correct = predictor.predict_and_update(
            pc, bool(takens[index]), target
        )
        if not correct:
            mispredicted.setdefault(pc, []).append(index)
    return {
        pc: BranchProfile(
            pc=pc,
            executions=count,
            mispredictions=len(mispredicted.get(pc, [])),
            mispredicted_indices=tuple(mispredicted.get(pc, [])),
        )
        for pc, count in executions.items()
    }


def problem_branches(
    profiles: Dict[int, BranchProfile],
    min_rate: float = 0.05,
    min_mispredictions: int = 16,
) -> List[BranchProfile]:
    """Branches worth attacking, hardest first."""
    problems = [
        profile
        for profile in profiles.values()
        if profile.rate >= min_rate
        and profile.mispredictions >= min_mispredictions
    ]
    problems.sort(key=lambda p: p.mispredictions, reverse=True)
    return problems


def select_branch_pthreads(
    program: Program,
    trace: Trace,
    params: ModelParams,
    constraints: Optional[SelectionConstraints] = None,
    mispredict_penalty: int = 10,
    min_rate: float = 0.05,
    min_mispredictions: int = 16,
) -> ProgramSelection:
    """Select p-threads that pre-execute problem branches.

    Args:
        params: model parameters; ``mem_latency`` is ignored — the
            tolerable latency per covered event is the misprediction
            penalty.
        mispredict_penalty: fetch-redirect penalty the machine charges
            (must match the timing configuration for honest scores).
        min_rate / min_mispredictions: problem-branch thresholds.
    """
    constraints = constraints or SelectionConstraints()
    branch_params = params.with_mem_latency(max(1, mispredict_penalty))
    problems = problem_branches(
        profile_branches(trace, program), min_rate, min_mispredictions
    )
    roots = sorted(
        index for profile in problems for index in profile.mispredicted_indices
    )
    # One tree per problem branch, rooted at its mispredicted instances:
    # the trees' roots are the sample's problem events.
    trees = build_slice_trees_for_roots(
        trace,
        roots,
        scope=constraints.scope,
        max_length=slice_tree_depth(constraints),
    )
    dc_trig = _dc_trig_counts(trace, len(program), 0, None)
    pthreads = _select_trees(
        trees, program, dc_trig, branch_params, constraints
    )
    return ProgramSelection(
        pthreads=pthreads,
        prediction=_prediction(
            pthreads, pthreads, trees, len(trace), branch_params
        ),
        params=branch_params,
        constraints=constraints,
    )
