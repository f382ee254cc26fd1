"""Pipeline-wide verification properties.

Runs every bundled workload through the full construction pipeline
(slice → unroll → optimize → merge) with ``REPRO_VERIFY=1``, so every
transformation's debug post-pass hook is live, and then checks the
finished selection against all PT invariants: anything error- or
warning-severity on the default (optimize+merge) pipeline is a bug.
Deliberately corrupted bodies prove the verifier is not vacuous.
"""

import os

import pytest

from repro.analysis.report import Severity
from repro.analysis.verifier import verify_body, verify_pthread, verify_selection
from repro.engine import run_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.model import ModelParams, SelectionConstraints
from repro.pthreads.body import VIRTUAL_REG_BASE, PThreadBody, analyze_dataflow
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.selection import select_pthreads
from repro.workloads import pharmacy
from repro.workloads.suite import SUITE, build


@pytest.fixture(autouse=True)
def verify_env():
    """Run everything in this module with the verification hooks live."""
    old = os.environ.get("REPRO_VERIFY")
    os.environ["REPRO_VERIFY"] = "1"
    yield
    if old is None:
        del os.environ["REPRO_VERIFY"]
    else:
        os.environ["REPRO_VERIFY"] = old


def select_for(name: str):
    workload = build(name, "train")
    result = run_program(workload.program, workload.hierarchy)
    params = ModelParams(
        bw_seq=8,
        unassisted_ipc=1.0,
        mem_latency=workload.hierarchy.mem_latency,
        load_latency=workload.hierarchy.l1.hit_latency,
    )
    constraints = SelectionConstraints()
    selection = select_pthreads(
        workload.program, result.trace, params, constraints
    )
    return workload, selection, constraints


@pytest.mark.parametrize("name", SUITE + ["pharmacy"])
def test_default_pipeline_selections_verify_clean(name):
    """No PT diagnostic above INFO on any bundled workload.

    The in-pipeline hooks (slicer/optimizer/merger/selector) are armed
    by the ``verify_env`` fixture and raise on any ERROR; afterwards
    the finished selection is re-checked explicitly.  INFO-severity
    PT006 advisories are legitimate: a load on a conditional path is
    covered only on the trigger's path (partial coverage, not a broken
    p-thread).
    """
    workload, selection, constraints = select_for(name)
    diagnostics = verify_selection(
        workload.program, selection.pthreads, constraints
    )
    offenders = [
        d.render() for d in diagnostics if d.severity > Severity.INFO
    ]
    assert offenders == []


def forge_body(instructions):
    """Build a PThreadBody bypassing constructor validation, the way a
    buggy transformation would hand one downstream."""
    body = object.__new__(PThreadBody)
    body.instructions = list(instructions)
    body.dataflow = analyze_dataflow(instructions)
    return body


def make_pthread(trigger_pc, root_pc, body):
    return StaticPThread(
        trigger_pc=trigger_pc,
        body=body,
        target_load_pcs=(root_pc,),
        prediction=PThreadPrediction(
            dc_trig=1,
            size=body.size,
            misses_covered=0,
            misses_fully_covered=0,
            lt_agg=0.0,
            oh_agg=0.0,
        ),
    )


class TestCorruptedBodiesAreCaught:
    """Each PT code fires on a deliberately corrupted body."""

    def test_pt001_smuggled_control_flow(self):
        body = forge_body(
            [
                Instruction(Opcode.J, target=0, pc=1),
                Instruction(Opcode.LW, rd=8, rs1=4, imm=0, pc=2),
            ]
        )
        diags = verify_body(body.instructions)
        assert any(
            d.code == "PT001" and d.severity is Severity.ERROR
            for d in diags
        )

    def test_pt002_unseedable_virtual_live_in(self):
        body = forge_body(
            [Instruction(Opcode.LW, rd=8, rs1=VIRTUAL_REG_BASE + 2, pc=0)]
        )
        diags = verify_body(body.instructions)
        assert any(d.code == "PT002" for d in diags)

    def test_pt003_body_missing_its_target(self):
        body = forge_body(
            [Instruction(Opcode.ADDI, rd=4, rs1=4, imm=4, pc=9)]
        )
        diags = verify_body(body.instructions, target_pcs=[3])
        assert any(
            d.code == "PT003" and d.severity is Severity.ERROR
            for d in diags
        )

    def test_pt004_store_nobody_reads(self):
        body = forge_body(
            [
                Instruction(Opcode.SW, rs2=8, rs1=4, imm=0, pc=1),
                Instruction(Opcode.LW, rd=9, rs1=4, imm=8, pc=2),
            ]
        )
        diags = verify_body(body.instructions, targets=[0, 1])
        assert any(d.code == "PT004" for d in diags)

    def test_pt005_oversized_body(self):
        insts = [
            Instruction(Opcode.ADDI, rd=4, rs1=4, imm=4, pc=0)
            for _ in range(5)
        ] + [Instruction(Opcode.LW, rd=8, rs1=4, imm=0, pc=1)]
        diags = verify_body(forge_body(insts).instructions, max_length=4)
        assert any(
            d.code == "PT005" and d.severity is Severity.ERROR
            for d in diags
        )

    def test_pt006_dangling_trigger(self):
        program = pharmacy.build(
            n_xact=50, n_drugs=1024, hot_drugs=64, hot_fraction=0.4, seed=3
        )
        body = PThreadBody(
            [Instruction(Opcode.LW, rd=8, rs1=4, imm=0, pc=2)]
        )
        pthread = make_pthread(len(program) + 5, 2, body)
        diags = verify_pthread(pthread, program=program)
        assert any(
            d.code == "PT006" and d.severity is Severity.ERROR
            for d in diags
        )


class TestHooksFire:
    """REPRO_VERIFY wires the verifier into the transformations."""

    def test_optimizer_hook_accepts_valid_bodies(self):
        from repro.pthreads.optimizer import optimize_body

        body = PThreadBody(
            [
                Instruction(Opcode.ADDI, rd=4, rs1=4, imm=4, pc=0),
                Instruction(Opcode.ADDI, rd=4, rs1=4, imm=4, pc=0),
                Instruction(Opcode.LW, rd=8, rs1=4, imm=0, pc=1),
            ]
        )
        optimized = optimize_body(body)
        assert optimized.body.size <= body.size

    def test_slicer_hook_runs_on_real_traces(self, pharmacy_small_run):
        from repro.slicing.slicer import Slicer

        trace = pharmacy_small_run.trace
        roots = [int(i) for i in trace.miss_indices(3)][:5]
        assert roots
        slicer = Slicer(trace)
        for root in roots:
            slicer.slice_at(root)  # must not raise under REPRO_VERIFY

    def test_experiment_verify_flag_covers_cached_selections(self):
        from repro.harness.experiment import ExperimentConfig, ExperimentRunner

        runner = ExperimentRunner()
        small = build(
            "pharmacy",
            "train",
            n_xact=500,
            n_drugs=8192,
            hot_drugs=512,
        )
        runner._workloads[("pharmacy", "train", small.hierarchy)] = small
        result = runner.run(ExperimentConfig(workload="pharmacy"))
        assert result.selection.pthreads
