"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_workloads, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command_parses(self):
        args = build_parser().parse_args(["run", "pharmacy", "--validate"])
        assert args.workload == "pharmacy"
        assert args.validate

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spec2077"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "8b"])
        assert args.which == "8b"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_workloads_filter(self):
        assert _parse_workloads("mcf, vpr.r") == ["mcf", "vpr.r"]
        assert len(_parse_workloads(None)) == 10
        with pytest.raises(SystemExit):
            _parse_workloads("nope")


@pytest.fixture
def hermetic_cli(monkeypatch):
    """Keep CLI execution tests fast and self-contained.

    Shrinks the pharmacy build, pins the sweep to the in-process serial
    path, and disables the persistent cache so tests never touch
    ``~/.cache/repro``.
    """
    from repro.workloads import pharmacy

    monkeypatch.setitem(
        pharmacy.INPUTS,
        "train",
        dict(
            n_xact=500, n_drugs=8192, hot_drugs=512,
            hot_fraction=0.45, seed=11,
        ),
    )
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "off")


class TestExecution:
    def test_run_pharmacy(self, capsys, hermetic_cli):
        assert main(["run", "pharmacy"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "trigger" in out

    def test_table1_single_workload(self, capsys, hermetic_cli):
        assert main(["table1", "--workloads", "pharmacy"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "pharmacy" in out

    def test_run_with_perf_report(self, capsys, hermetic_cli):
        assert main(["run", "pharmacy", "--perf"]) == 0
        out = capsys.readouterr().out
        assert "Harness performance" in out
        assert "disk hits" in out

    def test_table1_perf_and_trace_read_the_stage_spans(
        self, capsys, hermetic_cli, tmp_path
    ):
        trace = tmp_path / "trace.json"
        assert main(
            ["table1", "--workloads", "pharmacy", "--perf",
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        # One computed row per stage Table 1 runs, timed by its span.
        report = out[out.index("Harness performance"):].splitlines()
        rows = {line.split()[0]: line.split() for line in report[4:8]}
        for stage in ("baseline", "perfect_l2", "trace"):
            assert rows[stage][2:5] == ["1", "0", "0"], rows[stage]
            assert float(rows[stage][1]) > 0
        assert rows["total"][2] == "3"
        names = {span["name"] for span in json.loads(trace.read_text())["spans"]}
        assert {"trace", "baseline", "perfect_l2"} <= names


class TestLintCommand:
    def test_lint_clean_workload_text(self, capsys, hermetic_cli):
        assert main(["lint", "pharmacy"]) == 0
        out = capsys.readouterr().out
        assert "pharmacy (train):" in out
        assert "clean (no diagnostics)" in out

    def test_lint_json_format(self, capsys, hermetic_cli):
        assert main(["lint", "pharmacy", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["input"] == "train"
        assert payload["workloads"] == {"pharmacy": []}

    def test_lint_all_strict_is_clean(self, capsys, hermetic_cli):
        # Every bundled workload must lint clean, so --strict exits 0.
        assert main(["lint", "all", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "mcf (train):" in out
        assert "pharmacy (train):" in out

    def test_lint_strict_propagates_errors(self, capsys, hermetic_cli, monkeypatch):
        from repro.analysis.report import Diagnostic, Severity
        from repro import cli

        def broken(name, input_name):
            return [Diagnostic("PL005", Severity.ERROR, "falls off the end")]

        monkeypatch.setattr(cli, "_pthread_diagnostics", broken)
        # Without --pthreads the injected error never runs: exit 0.
        assert main(["lint", "pharmacy", "--strict"]) == 0
        capsys.readouterr()
        # With it, --strict must surface the error as exit code 1.
        assert main(["lint", "pharmacy", "--strict", "--pthreads"]) == 1
        assert "PL005" in capsys.readouterr().out

    def test_lint_pthreads_verifies_selection(self, capsys, hermetic_cli):
        assert main(["lint", "pharmacy", "--strict", "--pthreads"]) == 0
        capsys.readouterr()

    def test_run_accepts_verify_flag(self, capsys, hermetic_cli, monkeypatch):
        import os

        # setenv (not delenv) so monkeypatch records a restore point:
        # --verify mutates os.environ and must not leak past this test.
        monkeypatch.setenv("REPRO_VERIFY", "0")
        assert main(["run", "pharmacy", "--verify"]) == 0
        # The flag arms the hook environment for worker processes too.
        assert os.environ.get("REPRO_VERIFY") == "1"
        assert "speedup" in capsys.readouterr().out


class TestVerifyCodegenCommand:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["verify-codegen", "all"])
        assert args.workload == "all"
        assert args.variant == "all"
        assert args.format == "text"
        assert not args.strict

    def test_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify-codegen", "mcf", "--variant", "jit"]
            )

    def test_pharmacy_validates_clean(self, capsys, hermetic_cli):
        assert main(["verify-codegen", "pharmacy", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "functional" not in out
        assert "timing baseline launching=0" in out
        assert "timing pre-exec launching=1" in out
        assert "0 target(s) with errors" in out

    def test_json_output_is_byte_identical(self, capsys, hermetic_cli):
        # Deterministic diagnostics: two identical invocations must
        # produce byte-identical JSON, so CI diffs are stable.
        assert main(
            ["verify-codegen", "pharmacy", "--variant", "baseline",
             "--format", "json"]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["verify-codegen", "pharmacy", "--variant", "baseline",
             "--format", "json"]
        ) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["ok"] is True
        targets = [t["target"] for t in payload["targets"]]
        # The 2 baseline timing shapes.
        assert len(targets) == 2
        assert all(t.startswith("timing baseline") for t in targets)

    def test_strict_propagates_block_failures(
        self, capsys, hermetic_cli, monkeypatch
    ):
        from repro.analysis.report import Diagnostic, Severity
        from repro.analysis.transval import TransvalResult
        from repro.timing import TimingSimulator

        def broken(self, launching, stealing, prefetching):
            return TransvalResult(
                diagnostics=[
                    Diagnostic("CG001", Severity.ERROR, "injected")
                ],
                blocks_checked=1,
                blocks_failed=1,
            )

        monkeypatch.setattr(TimingSimulator, "validate_codegen", broken)
        assert main(
            ["verify-codegen", "pharmacy", "--variant", "baseline",
             "--strict"]
        ) == 1
        assert "CG001" in capsys.readouterr().out

    def test_lint_json_output_is_byte_identical(self, capsys, hermetic_cli):
        assert main(["lint", "pharmacy", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["lint", "pharmacy", "--format", "json"]) == 0
        assert first == capsys.readouterr().out


class TestFuzzCommand:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seeds == 25
        assert args.base_seed == 0
        assert args.shape is None
        assert not args.shrink

    def test_rejects_unknown_shape(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--shape", "spaghetti"])

    def test_campaign_writes_report(self, capsys, tmp_path):
        report = tmp_path / "out" / "FUZZ.json"
        assert (
            main(
                [
                    "fuzz",
                    "--seeds", "2",
                    "--base-seed", "3",
                    "--report", str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 seed(s): 2 ok, 0 failed" in out
        payload = json.loads(report.read_text())
        assert payload["seeds_run"] == 2
        assert payload["base_seed"] == 3
        assert payload["failed"] == 0
        assert len(payload["reports"]) == 2

    def test_replay_of_clean_reproducer(self, capsys, tmp_path):
        # Round-trip a (passing) workload through the corpus format and
        # replay it by file.
        from repro.fuzz.generator import generate
        from repro.fuzz.oracle import run_oracle
        from repro.fuzz.shrink import ShrinkResult, write_reproducer

        workload = generate(3)
        result = ShrinkResult(
            workload=workload,
            report=run_oracle(workload),
            failed_checks=[],
            original_lines=10,
            shrunk_lines=10,
            evaluations=0,
        )
        path = write_reproducer(result, tmp_path)
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "ok" in capsys.readouterr().out


class TestObservability:
    def test_trace_and_metrics_flags_export(
        self, capsys, hermetic_cli, tmp_path
    ):
        trace = tmp_path / "trace_pipeline.json"
        metrics = tmp_path / "metrics_snapshot.json"
        assert (
            main(
                [
                    "run", "pharmacy",
                    "--trace", str(trace),
                    "--metrics", str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        names = [span["name"] for span in doc["spans"]]
        assert "experiment" in names
        snap = json.loads(metrics.read_text())
        launches = snap["metrics"]["timing.pthread.launches"]["value"]
        drops = snap["metrics"]["timing.pthread.drops"]["value"]
        assert (
            snap["metrics"]["timing.pthread.attempts"]["value"]
            == launches + drops
        )

    def test_obs_check_passes_on_pipeline_snapshot(
        self, capsys, hermetic_cli, tmp_path
    ):
        metrics = tmp_path / "metrics_snapshot.json"
        assert main(["run", "pharmacy", "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["obs", "check", "--input", str(metrics)]) == 0
        assert "catalog intact" in capsys.readouterr().out

    def test_obs_check_fails_on_missing_catalog_metric(
        self, capsys, hermetic_cli, tmp_path
    ):
        metrics = tmp_path / "metrics_snapshot.json"
        assert main(["run", "pharmacy", "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        doc = json.loads(metrics.read_text())
        del doc["metrics"]["timing.pthread.drops"]
        metrics.write_text(json.dumps(doc))
        assert main(["obs", "check", "--input", str(metrics)]) == 1
        assert "timing.pthread.drops" in capsys.readouterr().err

    def test_obs_report_from_snapshot(self, capsys, hermetic_cli, tmp_path):
        metrics = tmp_path / "metrics_snapshot.json"
        assert main(["run", "pharmacy", "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", "--input", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "timing.pthread.launches" in out
        assert main(
            ["obs", "report", "--input", str(metrics), "--format", "prom"]
        ) == 0
        assert "timing_pthread_launches" in capsys.readouterr().out

    def test_fuzz_accepts_trace_flag(self, capsys, tmp_path):
        trace = tmp_path / "fuzz_trace.json"
        assert main(["fuzz", "--seeds", "1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        (fuzz,) = doc["spans"]
        assert fuzz["name"] == "fuzz"
        assert [c["name"] for c in fuzz["children"]] == ["seed"]


class TestCacheCommand:
    def test_info_and_clear(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert main(["cache", "clear"]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_disabled_cache_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert main(["cache", "info"]) == 0
        assert "disabled" in capsys.readouterr().out


class TestServeCommand:
    @pytest.mark.parametrize(
        "flags", [["--workers", "0"], ["--budget", "nan"]]
    )
    def test_out_of_range_flag_exits_before_the_daemon_starts(
        self, flags, monkeypatch
    ):
        import asyncio

        def no_daemon(coroutine):
            coroutine.close()
            raise AssertionError("the daemon started")

        monkeypatch.setattr(asyncio, "run", no_daemon)
        with pytest.raises(SystemExit, match="^error: "):
            main(["serve", *flags])
