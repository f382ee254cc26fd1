"""Tests for branch pre-execution (the paper's footnote 1 scenario)."""

from dataclasses import replace

import pytest

from repro.engine import run_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.model import ModelParams, SelectionConstraints
from repro.pthreads.body import PThreadBody
from repro.selection.branch_selection import (
    problem_branches,
    profile_branches,
    select_branch_pthreads,
)
from repro.timing import BASELINE, PRE_EXECUTION, TimingSimulator
from repro.workloads import build

PARAMS = ModelParams(bw_seq=8, unassisted_ipc=0.8, mem_latency=70, load_latency=2)


@pytest.fixture(scope="module")
def vpr_setup():
    workload = build("vpr.p", "train", n_swaps=1500)
    trace = run_program(workload.program, workload.hierarchy)
    return workload, trace


class TestTerminalBranchBodies:
    def test_terminal_branch_allowed(self):
        body = PThreadBody(
            [
                Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1),
                Instruction(Opcode.BEQ, rs1=1, rs2=0, target=0),
            ]
        )
        assert body.targets_branch

    def test_non_terminal_branch_rejected(self):
        with pytest.raises(ValueError):
            PThreadBody(
                [
                    Instruction(Opcode.BEQ, rs1=1, rs2=0, target=0),
                    Instruction(Opcode.ADDI, rd=1, rs1=1, imm=1),
                ]
            )

    def test_load_body_not_branch_targeting(self):
        body = PThreadBody([Instruction(Opcode.LW, rd=1, rs1=2, imm=0)])
        assert not body.targets_branch


class TestProfiling:
    def test_profiles_cover_conditional_branches(self, vpr_setup):
        workload, trace = vpr_setup
        profiles = profile_branches(trace.trace, workload.program)
        # The loop-exit bge and the random accept beq both profiled.
        assert len(profiles) >= 2
        total = sum(p.executions for p in profiles.values())
        assert total > 0

    def test_random_branch_identified_as_problem(self, vpr_setup):
        workload, trace = vpr_setup
        profiles = profile_branches(trace.trace, workload.program)
        problems = problem_branches(profiles)
        assert problems
        worst = problems[0]
        assert worst.rate > 0.3  # the data-dependent accept test
        assert len(worst.mispredicted_indices) == worst.mispredictions

    def test_loop_branch_not_a_problem(self, vpr_setup):
        workload, trace = vpr_setup
        profiles = profile_branches(trace.trace, workload.program)
        problems = {p.pc for p in problem_branches(profiles)}
        predictable = [
            pc
            for pc, profile in profiles.items()
            if profile.rate < 0.02 and profile.executions > 100
        ]
        assert all(pc not in problems for pc in predictable)


class TestBranchSelection:
    def test_selects_branch_targeting_pthreads(self, vpr_setup):
        workload, trace = vpr_setup
        selection = select_branch_pthreads(
            workload.program, trace.trace, PARAMS, SelectionConstraints()
        )
        assert selection.pthreads
        for pthread in selection.pthreads:
            assert pthread.body.targets_branch
            assert pthread.instances_ahead >= 0

    def test_lmem_is_penalty(self, vpr_setup):
        workload, trace = vpr_setup
        selection = select_branch_pthreads(
            workload.program,
            trace.trace,
            PARAMS,
            SelectionConstraints(),
            mispredict_penalty=10,
        )
        assert selection.params.mem_latency == 10
        for pthread in selection.pthreads:
            for score in pthread.components:
                assert score.lt <= 10

    def test_end_to_end_covers_mispredictions(self, vpr_setup):
        workload, trace = vpr_setup
        base = TimingSimulator(workload.program, workload.hierarchy).run(
            BASELINE
        )
        selection = select_branch_pthreads(
            workload.program,
            trace.trace,
            replace(PARAMS, unassisted_ipc=max(base.ipc, 0.05)),
            SelectionConstraints(),
        )
        pre = TimingSimulator(
            workload.program, workload.hierarchy, pthreads=selection.pthreads
        ).run(PRE_EXECUTION)
        assert pre.mispredicts_covered > 0.2 * pre.mispredictions
        assert pre.speedup_over(base) > 0.0

    def test_no_problem_branches_no_pthreads(
        self, pharmacy_small, pharmacy_small_run
    ):
        """Pharmacy's branches follow the coverage codes — somewhat
        predictable; with a high problem threshold nothing qualifies."""
        selection = select_branch_pthreads(
            pharmacy_small,
            pharmacy_small_run.trace,
            PARAMS,
            SelectionConstraints(),
            min_rate=0.95,
        )
        assert selection.pthreads == []
