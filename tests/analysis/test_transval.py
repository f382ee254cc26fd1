"""Translation-validator tests: clean codegen validates, mutations fire.

The mutation self-test is the validator's own proof of usefulness:
each test corrupts the *generated block source* the way a real codegen
bug would (wrong register index, dropped memory effect, off-by-one
branch target, reordered side effect) and asserts the matching CG code
fires.  Clean-validation tests pin the absence of false positives on
every variant the timing simulator actually compiles.
"""

import copy

import pytest

from repro.analysis.report import Severity
from repro.analysis.transval import (
    CG_CODES,
    TimingParams,
    TransvalResult,
    fallback_reason,
    validate_timing,
)
from repro.engine.compiler import MAX_PROGRAM, compile_timing
from repro.engine.decode import DecodedProgram
from repro.isa import assemble

MIXED_SOURCE = """
top:
    addi r1, r0, 5
    add  r2, r1, r1
    lw   r3, 0(r1)
    sw   r2, 4(r1)
    beq  r2, r3, top
    halt
"""

FULL_SOURCE = """
    addi r1, r0, 3
    lui  r4, 2
loop:
    addi r2, r2, 10
    lw   r3, 0(r1)
    sw   r2, 4(r1)
    mul  r5, r2, r3
    slt  r6, r5, r2
    srl  r7, r5, r1
    addi r1, r1, -1
    bgt  r1, r0, loop
    jal  ra, fin
    nop
fin:
    jr   ra
"""

TIMING_KW = dict(
    window=64,
    bw_seq=8,
    dispatch_latency=2,
    mispredict_penalty=10,
    forward_latency=1,
    launching=False,
    stealing=False,
    prefetching=False,
    trigger_pcs=frozenset(),
    hinted_pcs=frozenset(),
)


def decoded(source):
    return DecodedProgram(assemble(source))


def mutated(compiled, old, new):
    """Copy ``compiled`` with one textual corruption of its source."""
    assert old in compiled.source, f"mutation anchor not found: {old!r}"
    clone = copy.copy(compiled)
    clone.source = compiled.source.replace(old, new, 1)
    return clone


def codes(result):
    return sorted({d.code for d in result.diagnostics})


@pytest.fixture(scope="module")
def mixed():
    return decoded(MIXED_SOURCE)


@pytest.fixture(scope="module")
def mixed_compiled(mixed):
    return compile_timing(mixed, **TIMING_KW)


def validate(program, compiled):
    return validate_timing(program, compiled, TimingParams(**TIMING_KW))


class TestCleanValidation:
    def test_timing_baseline_clean(self):
        program = decoded(FULL_SOURCE)
        result = validate(program, compile_timing(program, **TIMING_KW))
        assert result.ok, [d.render() for d in result.diagnostics]
        assert result.blocks_checked > 0
        assert result.blocks_failed == 0
        assert result.blocks_unvalidatable == 0

    def test_timing_full_featured_clean(self):
        # Launching + stealing + prefetching, a non-power-of-two window
        # (so the ring-slot `%` vs `&` shapes genuinely differ), a
        # trigger PC mid-program, and a hinted branch.
        kw = dict(
            TIMING_KW,
            window=48,
            launching=True,
            stealing=True,
            prefetching=True,
            trigger_pcs=frozenset({2}),
            hinted_pcs=frozenset({9}),
        )
        program = decoded(FULL_SOURCE)
        compiled = compile_timing(program, **kw)
        result = validate_timing(program, compiled, TimingParams(**kw))
        assert result.ok, [d.render() for d in result.diagnostics]

    def test_result_merge_accumulates(self, mixed, mixed_compiled):
        one = validate(mixed, mixed_compiled)
        total = TransvalResult()
        total.merge(one)
        total.merge(one)
        assert total.blocks_checked == 2 * one.blocks_checked
        assert total.ok


class TestMutationsFire:
    """Each CG code must be provoked by the bug class it names."""

    def test_cg001_register_index_swap(self, mixed, mixed_compiled):
        # `add r2, r1, r1` reads r3 instead: register dataflow mismatch.
        bad = mutated(mixed_compiled, "regs[1] + regs[1]", "regs[1] + regs[3]")
        assert "CG001" in codes(validate(mixed, bad))

    def test_cg002_dropped_store(self, mixed, mixed_compiled):
        bad = mutated(mixed_compiled, "\n        words[a] = regs[2]", "")
        result = validate(mixed, bad)
        assert "CG002" in codes(result)
        assert result.blocks_failed > 0

    def test_cg003_branch_target_off_by_one(self, mixed, mixed_compiled):
        # The taken successor of `beq` moves from pc 0 to pc 1.  The
        # branch condition is loop-carried and may evaluate one way on
        # every concrete vector, so only arm-by-arm comparison of the
        # successor expression catches this.
        bad = mutated(
            mixed_compiled, "return (0 if t else 5)", "return (1 if t else 5)"
        )
        assert "CG003" in codes(validate(mixed, bad))

    def test_cg004_timing_latency_skew(self):
        program = decoded(FULL_SOURCE)
        compiled = compile_timing(program, **TIMING_KW)
        bad = mutated(compiled, "issue = ready + 1", "issue = ready + 2")
        result = validate_timing(program, bad, TimingParams(**TIMING_KW))
        assert "CG004" in codes(result)

    def test_cg004_timing_mispredict_penalty(self):
        program = decoded(FULL_SOURCE)
        compiled = compile_timing(program, **TIMING_KW)
        bad = mutated(compiled, "complete + 10", "complete + 11")
        result = validate_timing(program, bad, TimingParams(**TIMING_KW))
        assert codes(result) == ["CG004"]

    def test_cg005_unvalidatable_construct(self, mixed, mixed_compiled):
        # A list comprehension is outside the validator's expression
        # language: it must refuse explicitly, never pass silently.
        bad = mutated(
            mixed_compiled,
            "        t = regs[2] == regs[3]",
            "        t = [q for q in (1,)][0] == regs[3]",
        )
        result = validate(mixed, bad)
        assert "CG005" in codes(result)
        assert result.blocks_unvalidatable > 0

    def test_cg101_interpreter_fallback_is_advisory(self, mixed):
        result = validate(mixed, None)
        assert codes(result) == ["CG101"]
        assert result.fallbacks == 1
        # Advisory, not an error: REPRO_VERIFY must not reject programs
        # the compiler legitimately declines.
        assert result.ok
        assert all(
            d.severity is Severity.INFO for d in result.diagnostics
        )


class TestDiagnosticsHygiene:
    def test_all_cg_codes_documented(self):
        assert set(CG_CODES) == {
            "CG001", "CG002", "CG003", "CG004", "CG005", "CG101",
        }

    def test_diagnostics_sorted_and_stable(self, mixed, mixed_compiled):
        # Two corruption sites -> several diagnostics; order must be
        # (code, pc, ...) and identical across runs.
        bad = mutated(mixed_compiled, "regs[1] + regs[1]", "regs[1] + regs[3]")
        bad = mutated(bad, "\n        words[a] = regs[2]", "")
        first = validate(mixed, bad)
        second = validate(mixed, bad)
        rendered = [d.render() for d in first.diagnostics]
        assert rendered == [d.render() for d in second.diagnostics]
        keys = [
            (d.code, d.pc if d.pc is not None else -1)
            for d in first.diagnostics
        ]
        assert keys == sorted(keys)

    def test_fallback_reason_oversized(self, mixed):
        real_length = len(mixed)
        try:
            mixed.kind.extend([mixed.kind[0]] * MAX_PROGRAM)
            assert "MAX_PROGRAM" in fallback_reason(mixed)
        finally:
            del mixed.kind[real_length:]
