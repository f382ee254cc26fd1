"""Tests for the p-thread invariant verifier (PT001–PT006, SL001)."""

import pytest

from repro.analysis.report import (
    Severity,
    VerificationError,
    assert_clean,
    errors,
    verification_enabled,
)
from repro.analysis.verifier import (
    verify_body,
    verify_pthread,
    verify_selection,
    verify_slice,
)
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pthreads.body import VIRTUAL_REG_BASE, PThreadBody
from repro.pthreads.pthread import PThreadPrediction, StaticPThread
from repro.slicing.slicer import DynamicSlice


def addi(rd, rs1, imm, pc=-1):
    return Instruction(Opcode.ADDI, rd=rd, rs1=rs1, imm=imm, pc=pc)


def lw(rd, rs1, imm=0, pc=-1):
    return Instruction(Opcode.LW, rd=rd, rs1=rs1, imm=imm, pc=pc)


def sw(rs2, rs1, imm=0, pc=-1):
    return Instruction(Opcode.SW, rs2=rs2, rs1=rs1, imm=imm, pc=pc)


def codes(diagnostics):
    return sorted({d.code for d in diagnostics})


#: A well-formed address-computation body: pointer bump, then load.
CLEAN_BODY = [addi(5, 5, 8, pc=3), lw(6, 5, 0, pc=4)]


class TestVerifyBody:
    def test_clean_body_has_no_diagnostics(self):
        assert verify_body(CLEAN_BODY) == []

    def test_empty_body_is_pt003(self):
        diags = verify_body([])
        assert codes(diags) == ["PT003"]
        assert diags[0].severity is Severity.ERROR

    def test_pt001_mid_body_branch(self):
        body = [
            addi(5, 5, 8),
            Instruction(Opcode.BNE, rs1=5, rs2=0, target=0),
            lw(6, 5, 0),
        ]
        diags = verify_body(body)
        assert any(
            d.code == "PT001" and d.severity is Severity.ERROR for d in diags
        )

    def test_pt001_jump_and_halt(self):
        for bad in (
            Instruction(Opcode.J, target=0),
            Instruction(Opcode.HALT),
        ):
            diags = verify_body([bad, lw(6, 5, 0)])
            assert "PT001" in codes(diags)

    def test_pt001_terminal_branch_is_legal(self):
        body = [
            addi(5, 5, 8),
            Instruction(Opcode.BNE, rs1=5, rs2=0, target=0),
        ]
        assert verify_body(body) == []

    def test_pt001_terminal_branch_rejected_when_disallowed(self):
        body = [
            addi(5, 5, 8),
            Instruction(Opcode.BNE, rs1=5, rs2=0, target=0),
        ]
        diags = verify_body(body, allow_terminal_branch=False)
        assert "PT001" in codes(diags)

    def test_pt002_virtual_register_read_before_definition(self):
        virtual = VIRTUAL_REG_BASE + 1
        diags = verify_body([lw(6, virtual, 0)])
        assert codes(diags) == ["PT002"]
        assert diags[0].severity is Severity.ERROR

    def test_pt002_virtual_register_defined_upstream_is_fine(self):
        virtual = VIRTUAL_REG_BASE
        body = [addi(virtual, 5, 8), lw(6, virtual, 0)]
        assert verify_body(body) == []

    def test_pt002_missing_source_operand(self):
        broken = Instruction(Opcode.ADD, rd=6, rs1=5, rs2=None)
        diags = verify_body([broken, lw(7, 6, 0)])
        assert "PT002" in codes(diags)

    def test_pt003_target_pc_missing_from_body(self):
        diags = verify_body(CLEAN_BODY, target_pcs=[99])
        pt3 = [d for d in diags if d.code == "PT003"]
        assert pt3 and pt3[0].severity is Severity.ERROR

    def test_pt003_dead_instruction_is_flagged(self):
        body = [
            addi(7, 7, 4, pc=1),  # feeds nothing below
            addi(5, 5, 8, pc=3),
            lw(6, 5, 0, pc=4),
        ]
        diags = verify_body(body)
        dead = [d for d in diags if d.code == "PT003"]
        assert len(dead) == 1
        assert dead[0].position == 0
        assert dead[0].severity is Severity.WARNING

    def test_pt003_final_instruction_not_a_target(self):
        body = [addi(5, 5, 8, pc=3), lw(6, 5, 0, pc=4), addi(7, 6, 1, pc=5)]
        diags = verify_body(body, target_pcs=[4])
        assert any(
            d.code == "PT003" and d.position == 2 for d in diags
        )

    def test_pt003_repeated_target_pc_marks_every_instance(self):
        # Pointer chase: the same static load unrolled twice; both
        # instances are target instances, so neither is "dead".
        body = [lw(5, 5, 0, pc=7), lw(5, 5, 0, pc=7)]
        assert verify_body(body, target_pcs=[7]) == []

    def test_pt004_unconsumed_store(self):
        body = [addi(5, 5, 8), sw(6, 5, 0), lw(7, 5, 4)]
        diags = verify_body(body, targets=[1, 2])
        assert any(
            d.code == "PT004" and d.severity is Severity.WARNING
            for d in diags
        )

    def test_pt004_forwarded_store_is_clean(self):
        body = [addi(5, 5, 8), sw(6, 5, 0), lw(7, 5, 0)]
        assert verify_body(body) == []

    def test_pt005_body_length_limit(self):
        diags = verify_body(CLEAN_BODY, max_length=1)
        assert any(
            d.code == "PT005" and d.severity is Severity.ERROR
            for d in diags
        )
        assert verify_body(CLEAN_BODY, max_length=2) == []


def make_pthread(program, trigger_pc, root_pc, body=None):
    if body is None:
        root = program[root_pc]
        body = PThreadBody(
            [Instruction(root.op, rd=root.rd, rs1=root.rs1,
                         rs2=root.rs2, imm=root.imm, target=root.target,
                         pc=root_pc)]
        )
    prediction = PThreadPrediction(
        dc_trig=1,
        size=body.size,
        misses_covered=0,
        misses_fully_covered=0,
        lt_agg=0.0,
        oh_agg=0.0,
    )
    return StaticPThread(
        trigger_pc=trigger_pc,
        body=body,
        target_load_pcs=(root_pc,),
        prediction=prediction,
    )


class TestVerifyPThread:
    def test_clean_loop_pthread(self):
        program = assemble(
            """
        loop:
            lw   t0, 0(a0)
            addi a0, a0, 4
            bne  t0, zero, loop
            halt
        """
        )
        pthread = make_pthread(program, trigger_pc=1, root_pc=0)
        assert verify_pthread(pthread, program=program) == []

    def test_pt006_trigger_pc_out_of_range(self):
        program = assemble("lw t0, 0(a0)\nhalt")
        pthread = make_pthread(program, trigger_pc=40, root_pc=0)
        diags = verify_pthread(pthread, program=program)
        assert any(
            d.code == "PT006" and d.severity is Severity.ERROR
            for d in diags
        )

    def test_pt006_root_not_load_or_branch(self):
        program = assemble("addi t0, t0, 1\nlw t1, 0(t0)\nhalt")
        pthread = make_pthread(
            program, trigger_pc=1, root_pc=0,
            body=PThreadBody([addi(8, 8, 1, pc=0)]),
        )
        diags = verify_pthread(pthread, program=program)
        assert any(
            d.code == "PT006" and d.severity is Severity.ERROR
            for d in diags
        )

    def test_pt006_root_unreachable_from_trigger(self):
        program = assemble(
            """
            lw   t0, 0(a0)
            addi a0, a0, 4
            halt
        """
        )
        # Trigger after the root, no loop back: no dynamic root
        # instance can ever follow a trigger instance.
        pthread = make_pthread(program, trigger_pc=1, root_pc=0)
        diags = verify_pthread(pthread, program=program)
        assert any(
            d.code == "PT006" and d.severity is Severity.ERROR
            for d in diags
        )

    def test_pt006_partial_coverage_is_advisory_only(self):
        program = assemble(
            """
        start:
            addi a0, zero, 0
        loop:
            beq  a1, zero, skip
            addi a0, a0, 4
        skip:
            lw   t0, 0(a0)
            bne  t0, zero, loop
            halt
        """
        )
        # The trigger (2) sits on a conditional path: some root
        # instances (3) execute without a preceding trigger.
        pthread = make_pthread(program, trigger_pc=2, root_pc=3)
        diags = verify_pthread(pthread, program=program)
        pt6 = [d for d in diags if d.code == "PT006"]
        assert pt6
        assert all(d.severity is Severity.INFO for d in pt6)
        assert errors(diags) == []

    def test_pt005_via_constraints(self):
        from repro.model.params import SelectionConstraints

        program = assemble(
            """
        loop:
            lw   t0, 0(a0)
            addi a0, a0, 4
            bne  t0, zero, loop
            halt
        """
        )
        body = PThreadBody(
            [addi(4, 4, 4, pc=1), addi(4, 4, 4, pc=1), lw(8, 4, 0, pc=0)]
        )
        pthread = make_pthread(program, trigger_pc=1, root_pc=0, body=body)
        constraints = SelectionConstraints(max_pthread_length=2)
        diags = verify_pthread(
            pthread, program=program, constraints=constraints
        )
        assert "PT005" in codes(diags)


class TestVerifySelection:
    def test_aggregates_over_pthreads(self):
        program = assemble(
            """
        loop:
            lw   t0, 0(a0)
            addi a0, a0, 4
            bne  t0, zero, loop
            halt
        """
        )
        good = make_pthread(program, trigger_pc=1, root_pc=0)
        bad = make_pthread(program, trigger_pc=77, root_pc=0)
        diags = verify_selection(program, [good, bad])
        assert [d.code for d in diags].count("PT006") == 1


class TestVerifySlice:
    def test_valid_slice(self):
        s = DynamicSlice(
            root=10, indices=(10, 7, 3), dep_positions=((1,), (2,), ())
        )
        assert verify_slice(s) == []

    def test_root_must_lead(self):
        s = DynamicSlice(root=10, indices=(7, 10), dep_positions=((), ()))
        assert codes(verify_slice(s)) == ["SL001"]

    def test_indices_must_descend(self):
        s = DynamicSlice(
            root=10, indices=(10, 3, 7), dep_positions=((), (), ())
        )
        assert "SL001" in codes(verify_slice(s))

    def test_producers_must_be_older(self):
        s = DynamicSlice(
            root=10, indices=(10, 7), dep_positions=((), (0,))
        )
        assert "SL001" in codes(verify_slice(s))


class TestReporting:
    def test_assert_clean_raises_only_on_errors(self):
        warning = verify_body(
            [addi(7, 7, 4), addi(5, 5, 8), lw(6, 5, 0)]
        )
        assert warning  # dead instruction -> PT003 warning
        assert_clean(warning, "warnings pass")  # no raise
        with pytest.raises(VerificationError) as exc_info:
            assert_clean(verify_body([]), "empty body")
        assert "PT003" in str(exc_info.value)

    def test_verification_enabled_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert not verification_enabled()
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert verification_enabled()
        monkeypatch.setenv("REPRO_VERIFY", "0")
        assert not verification_enabled()

    def test_diagnostic_render_and_json(self):
        diags = verify_body([], max_length=None)
        rendered = diags[0].render()
        assert "PT003" in rendered and "error" in rendered
        payload = diags[0].to_dict()
        assert payload["code"] == "PT003"
        assert payload["severity"] == "error"
