"""``optimize_body`` reuses dataflow without changing its result.

``optimize_body`` hands each pass the dataflow of its input and
recomputes it only after a pass that reports a change.  That is sound
only if a pass reporting zero changes returns an element-wise equal
list: ``analyze_dataflow`` reads only fields that ``Instruction``
equality compares, so an equal list has the same dataflow.  The
reference fixpoint below calls
the four passes with no dataflow argument, so every pass re-analyses
its input, and checks that invariant after every pass it runs.  With
the optimizer memo cleared, ``optimize_body`` must give the same body,
PCs, targets and report on every slice-tree path body of three bundled
programs and on the optimizer property tests' random bodies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.functional import run_program
from repro.isa.instruction import Instruction
from repro.pthreads.body import PThreadBody
from repro.pthreads import optimizer
from repro.pthreads.optimizer import (
    OptimizationReport,
    _target_positions,
    eliminate_dead_code,
    eliminate_moves,
    eliminate_store_load_pairs,
    fold_constants,
    optimize_body,
)
from repro.slicing.slice_tree import build_slice_trees
from repro.workloads.suite import build
from tests.property.test_optimizer_props import body_instructions

#: Programs whose every slice-tree path body is optimized both ways.
PROGRAMS = ("gcc", "mcf", "vpr.r")


def assert_unchanged(
    before: List[Instruction], after: List[Instruction], changes: int, name: str
) -> None:
    """A pass that reports no change returned an element-wise equal list."""
    if not changes:
        assert after == before, name


def reference_optimize(
    body: PThreadBody,
    targets: Optional[Sequence[int]] = None,
    max_passes: int = 64,
    assume_no_alias: bool = True,
) -> Tuple[List[Instruction], Tuple[int, ...], OptimizationReport]:
    """The optimizer fixpoint with every pass re-analysing its input."""
    instructions = list(body.instructions)
    target_list = _target_positions(len(instructions), targets)
    moves = pairs = folds = dead = 0
    for _ in range(max_passes):
        before = list(instructions)

        step, n_moves = eliminate_moves(instructions)
        assert_unchanged(instructions, step, n_moves, "eliminate_moves")
        instructions, moves = step, moves + n_moves

        step, n_pairs = eliminate_store_load_pairs(
            instructions, assume_no_alias=assume_no_alias
        )
        assert_unchanged(instructions, step, n_pairs, "eliminate_store_load_pairs")
        instructions, pairs = step, pairs + n_pairs

        step, n_folds, deleted = fold_constants(
            instructions, protected=set(target_list)
        )
        assert_unchanged(instructions, step, n_folds, "fold_constants")
        instructions, folds = step, folds + n_folds
        if deleted is not None:
            target_list = [t - 1 if t > deleted else t for t in target_list]

        step, step_targets, n_dead = eliminate_dead_code(
            instructions, target_list, assume_no_alias=assume_no_alias
        )
        assert_unchanged(instructions, step, n_dead, "eliminate_dead_code")
        if not n_dead:
            assert step_targets == sorted(set(target_list))
        instructions, target_list, dead = step, step_targets, dead + n_dead

        if instructions == before:
            break
    report = OptimizationReport(
        original_size=body.size,
        optimized_size=len(instructions),
        moves_eliminated=moves,
        store_load_pairs_eliminated=pairs,
        constants_folded=folds,
        dead_instructions_removed=dead,
    )
    return instructions, tuple(target_list), report


def assert_same_optimization(
    body: PThreadBody,
    targets: Optional[Sequence[int]] = None,
    assume_no_alias: bool = True,
) -> None:
    want_body, want_targets, want_report = reference_optimize(
        body, targets, assume_no_alias=assume_no_alias
    )
    optimizer._MEMO.clear()
    got = optimize_body(body, targets, assume_no_alias=assume_no_alias)
    assert got.body.instructions == want_body
    # Instruction equality ignores PCs; body provenance needs them.
    assert [inst.pc for inst in got.body.instructions] == [
        inst.pc for inst in want_body
    ]
    assert got.targets == want_targets
    assert got.report == want_report


def tree_path_bodies(name: str) -> List[PThreadBody]:
    """Every slice-tree path body of ``name``, as the selector builds them."""
    workload = build(name)
    program = workload.program
    trace = run_program(program, workload.hierarchy).trace
    bodies = []
    for tree in build_slice_trees(trace, scope=1024, max_length=64).values():
        for node in tree.nodes():
            if node.depth:
                path = node.path_to_root()[1:]
                bodies.append(PThreadBody([program[n.pc] for n in path]))
    return bodies


@pytest.mark.parametrize("name", PROGRAMS)
def test_tree_path_bodies_match_reference(name):
    bodies = tree_path_bodies(name)
    assert bodies
    for body in bodies:
        assert_same_optimization(body)


# No deadline: shared hosts have noisy clocks (as tests/property/conftest.py).
@settings(deadline=None)
@given(
    instructions=body_instructions(),
    assume_no_alias=st.booleans(),
    data=st.data(),
)
def test_random_bodies_match_reference(instructions, assume_no_alias, data):
    body = PThreadBody(instructions)
    targets = None
    if data.draw(st.booleans()):
        targets = data.draw(
            st.lists(st.integers(0, body.size - 1), min_size=1, max_size=3)
        )
    assert_same_optimization(body, targets, assume_no_alias)
