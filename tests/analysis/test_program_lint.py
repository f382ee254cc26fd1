"""Tests for workload-level lints (PL002–PL005)."""

import pytest

from repro.analysis.program_lint import lint_program, lint_workload
from repro.analysis.report import Severity
from repro.isa import AssemblerError, DataImage, ProgramError, assemble
from repro.workloads.suite import SUITE


CLEAN = """
start:
    addi a0, zero, 4096
    lw   t0, 0(a0)
    add  s0, s0, t0
    halt
"""


def clean_data() -> DataImage:
    data = DataImage()
    data.store_words(4096, [7])
    return data


class TestLintSource:
    """Source that does not assemble never reaches the lints: the
    assembler refuses it, with the position where one is known (the
    former PL001)."""

    def test_clean_program(self):
        assert lint_program(assemble(CLEAN, data=clean_data())) == []

    def test_pl001_syntax_error_with_position(self):
        with pytest.raises(AssemblerError) as error:
            assemble("    addi t0, t0, xyz\n")
        assert (error.value.line_no, error.value.column) == (1, 18)
        assert str(error.value).startswith("line 1:18: ")

    def test_pl001_undefined_label(self):
        with pytest.raises(ProgramError, match="undefined label"):
            assemble("    j nowhere\n    halt\n")


class TestLintProgram:
    def test_pl002_unreachable_code(self):
        program = assemble(
            """
            j skip
            addi t0, zero, 1
            addi t1, zero, 2
        skip:
            halt
        """
        )
        diags = lint_program(program)
        pl2 = [d for d in diags if d.code == "PL002"]
        assert len(pl2) == 1  # one run covering both dead instructions
        assert pl2[0].severity is Severity.WARNING
        assert "2 instruction(s)" in pl2[0].message

    def test_pl003_register_never_written(self):
        program = assemble(
            """
            add  t0, t0, s7
            halt
        """
        )
        diags = lint_program(program)
        pl3 = [d for d in diags if d.code == "PL003"]
        assert [d.pc for d in pl3] == [0]
        assert "s7" not in pl3[0].message  # message uses raw r-names
        assert "r23" in pl3[0].message

    def test_pl003_not_fired_for_written_registers(self):
        # Reading a register's initial zero before a later write is
        # idiomatic cheap initialization — not a lint.
        program = assemble(
            """
            add  s0, s0, t0
            addi t0, zero, 1
            halt
        """
        )
        assert [d for d in lint_program(program) if d.code == "PL003"] == []

    def test_pl004_load_from_uninitialized_word(self):
        program = assemble(
            """
            addi a0, zero, 4096
            lw   t0, 0(a0)
            halt
        """
        )  # no data image at all
        diags = lint_program(program)
        pl4 = [d for d in diags if d.code == "PL004"]
        assert len(pl4) == 1
        assert pl4[0].severity is Severity.WARNING

    def test_pl004_satisfied_by_data_image(self):
        program = assemble(
            """
            addi a0, zero, 4096
            lw   t0, 0(a0)
            halt
        """,
            data=clean_data(),
        )
        assert [d for d in lint_program(program) if d.code == "PL004"] == []

    def test_pl004_satisfied_by_region(self):
        data = DataImage()
        data.add_region("arena", 8192, 4)
        program = assemble(
            """
            addi a0, zero, 8192
            lw   t0, 4(a0)
            halt
        """,
            data=data,
        )
        assert [d for d in lint_program(program) if d.code == "PL004"] == []

    def test_pl004_satisfied_by_constant_store(self):
        program = assemble(
            """
            addi a0, zero, 4096
            sw   zero, 0(a0)
            lw   t0, 0(a0)
            halt
        """
        )
        assert [d for d in lint_program(program) if d.code == "PL004"] == []

    def test_pl004_skipped_when_any_store_address_unknown(self):
        # A store through a loaded pointer could write anywhere, so
        # the check must go conservative and stay quiet.
        program = assemble(
            """
            addi a0, zero, 4096
            lw   t0, 0(a0)
            sw   zero, 0(t0)
            lw   t1, 0(a0)
            halt
        """
        )
        assert [d for d in lint_program(program) if d.code == "PL004"] == []

    def test_pl005_fall_off_end(self):
        program = assemble(
            """
            addi t0, zero, 1
            addi t1, zero, 2
        """
        )
        diags = lint_program(program)
        pl5 = [d for d in diags if d.code == "PL005"]
        assert len(pl5) == 1
        assert pl5[0].severity is Severity.ERROR

    def test_pl005_not_fired_for_unreachable_tail(self):
        program = assemble(
            """
            halt
            addi t0, zero, 1
        """
        )
        diags = lint_program(program)
        assert [d for d in diags if d.code == "PL005"] == []
        assert [d.code for d in diags] == ["PL002"]


class TestBundledWorkloads:
    def test_every_bundled_workload_is_clean(self):
        for name in SUITE + ["pharmacy"]:
            diags = lint_workload(name, "train")
            assert diags == [], f"{name}: {[d.render() for d in diags]}"
