"""Tests for p-thread optimization passes.

The load-bearing property is semantics preservation: the optimized body
must compute the same address/value at every target position.  Each
pass is tested directly, and :mod:`tests.property.test_optimizer_props`
fuzzes the whole pipeline with hypothesis.
"""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pthreads.body import PThreadBody
from repro.pthreads.interp import execute_body
from repro.pthreads.optimizer import (
    eliminate_dead_code,
    eliminate_moves,
    eliminate_store_load_pairs,
    fold_constants,
    optimize_body,
)


def addi(rd, rs1, imm):
    return Instruction(Opcode.ADDI, rd=rd, rs1=rs1, imm=imm)


def mov(rd, rs1):
    return Instruction(Opcode.MOV, rd=rd, rs1=rs1)


def lw(rd, rs1, imm=0):
    return Instruction(Opcode.LW, rd=rd, rs1=rs1, imm=imm)


def sw(rs2, rs1, imm=0):
    return Instruction(Opcode.SW, rs2=rs2, rs1=rs1, imm=imm)


def same_semantics(original, optimized, seeds, memory=None):
    memory = memory or {}
    load = lambda addr: memory.get(addr, addr // 4)
    out_a = execute_body(original, dict(seeds), load)
    out_b = execute_body(optimized, dict(seeds), load)
    return out_a.values[-1] == out_b.values[-1] and (
        out_a.addresses[-1] == out_b.addresses[-1]
    )


class TestFoldConstants:
    def test_induction_chain_folds(self):
        insts = [addi(5, 5, 16), addi(5, 5, 16), lw(8, 5)]
        out, folded, deleted = fold_constants(insts)
        assert folded == 1 and deleted == 0
        assert out[0].imm == 32
        assert len(out) == 2

    def test_multi_link_chain_folds_via_fixpoint(self):
        body = PThreadBody([addi(5, 5, 16)] * 4 + [lw(8, 5)])
        optimized = optimize_body(body).body
        assert optimized.size == 2
        assert optimized.instructions[0].imm == 64

    def test_shared_intermediate_not_folded(self):
        # The first addi's value feeds both the second addi and the load.
        insts = [addi(5, 5, 16), lw(7, 5), addi(5, 5, 16), lw(8, 5)]
        out, folded, _ = fold_constants(insts)
        assert folded == 0

    def test_clobbered_source_not_folded(self):
        # addi r6, r5, 1 ... r5 redefined ... addi r7, r6, 2: folding
        # would read the *new* r5.
        insts = [addi(6, 5, 1), addi(5, 0, 99), addi(7, 6, 2), lw(8, 7)]
        out, folded, _ = fold_constants(insts)
        assert folded == 0

    def test_semantics_preserved(self):
        body = PThreadBody([addi(5, 5, 16)] * 3 + [lw(8, 5)])
        optimized = optimize_body(body).body
        assert same_semantics(body, optimized, {5: 1000})


class TestStoreLoadElimination:
    def test_pair_becomes_move(self):
        insts = [sw(3, 9, 8), lw(4, 9, 8), lw(5, 4, 0)]
        out, eliminated = eliminate_store_load_pairs(insts)
        assert eliminated == 1
        assert out[1].op is Opcode.MOV and out[1].rs1 == 3

    def test_value_register_redefined_blocks_elimination(self):
        insts = [sw(3, 9, 8), addi(3, 3, 1), lw(4, 9, 8)]
        out, eliminated = eliminate_store_load_pairs(insts)
        assert eliminated == 0

    def test_intervening_store_blocks_elimination_without_no_alias(self):
        # sw r4, 0(r7) may write 8(r9) at run time.
        insts = [sw(3, 9, 8), sw(4, 7, 0), lw(5, 9, 8)]
        _, eliminated = eliminate_store_load_pairs(insts, assume_no_alias=False)
        assert eliminated == 0
        _, eliminated = eliminate_store_load_pairs(insts)
        assert eliminated == 1

    def test_aliasing_store_semantics_preserved_without_no_alias(self):
        body = PThreadBody([sw(3, 9, 8), sw(4, 7, 0), lw(5, 9, 8)])
        optimized = optimize_body(body, assume_no_alias=False).body
        seeds = {3: 1, 4: 2, 7: 108, 9: 100}
        assert same_semantics(body, optimized, seeds)

    def test_full_pipeline_drops_dead_store(self):
        body = PThreadBody([sw(3, 9, 8), lw(4, 9, 8), lw(5, 4, 0)])
        result = optimize_body(body)
        assert result.report.store_load_pairs_eliminated == 1
        ops = [inst.op for inst in result.body.instructions]
        assert Opcode.SW not in ops

    def test_semantics_preserved(self):
        body = PThreadBody([addi(3, 0, 256), sw(3, 9, 8), lw(4, 9, 8), lw(5, 4, 0)])
        optimized = optimize_body(body).body
        assert same_semantics(body, optimized, {9: 5000})


class TestMoveElimination:
    def test_copy_propagated(self):
        insts = [mov(4, 3), lw(5, 4)]
        out, rewritten = eliminate_moves(insts)
        assert rewritten == 1
        assert out[1].rs1 == 3

    def test_copy_invalidated_by_source_redefinition(self):
        insts = [mov(4, 3), addi(3, 3, 1), lw(5, 4)]
        out, rewritten = eliminate_moves(insts)
        assert out[2].rs1 == 4  # must NOT propagate

    def test_copy_invalidated_by_dest_redefinition(self):
        insts = [mov(4, 3), addi(4, 0, 7), lw(5, 4)]
        out, _ = eliminate_moves(insts)
        assert out[2].rs1 == 4

    def test_pipeline_removes_dead_mov(self):
        body = PThreadBody([mov(4, 3), lw(5, 4)])
        optimized = optimize_body(body).body
        assert optimized.size == 1
        assert optimized.instructions[0].rs1 == 3


class TestDeadCodeElimination:
    def test_unrelated_instruction_removed(self):
        insts = [addi(1, 2, 0), addi(9, 9, 1), lw(3, 1)]
        out, targets, removed = eliminate_dead_code(insts, [2])
        assert removed == 1
        assert targets == [1]
        assert len(out) == 2

    def test_store_feeding_target_kept(self):
        insts = [sw(3, 9, 8), lw(4, 9, 8)]
        out, targets, removed = eliminate_dead_code(insts, [1])
        assert removed == 0

    def test_conservative_mode_keeps_store_between_pair(self):
        insts = [sw(3, 9, 8), sw(4, 7, 0), lw(5, 9, 8)]
        _, _, removed = eliminate_dead_code(insts, [2], assume_no_alias=False)
        assert removed == 0
        _, _, removed = eliminate_dead_code(insts, [2])
        assert removed == 1

    def test_multiple_targets_all_kept(self):
        insts = [addi(1, 2, 0), lw(3, 1), addi(4, 5, 0), lw(6, 4)]
        out, targets, removed = eliminate_dead_code(insts, [1, 3])
        assert removed == 0
        assert targets == [1, 3]

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            eliminate_dead_code([addi(1, 2, 0)], [5])
        with pytest.raises(ValueError):
            eliminate_dead_code([addi(1, 2, 0)], [])


class TestOptimizeBody:
    def test_report_totals(self):
        body = PThreadBody(
            [addi(5, 5, 16), addi(5, 5, 16), addi(9, 9, 1), lw(8, 5)]
        )
        result = optimize_body(body)
        assert result.report.original_size == 4
        assert result.report.optimized_size == 2
        assert result.report.removed == 2
        assert result.report.constants_folded == 1
        assert result.report.dead_instructions_removed >= 1

    def test_target_tracked_through_folding(self):
        body = PThreadBody([addi(5, 5, 16)] * 5 + [lw(8, 5)])
        result = optimize_body(body)
        assert result.targets == (result.body.size - 1,)
        assert result.body.instructions[result.targets[0]].is_load

    def test_idempotent(self):
        body = PThreadBody([addi(5, 5, 16)] * 3 + [lw(8, 5)])
        once = optimize_body(body).body
        twice = optimize_body(once).body
        assert once == twice
