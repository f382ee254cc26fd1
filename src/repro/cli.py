"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's artifacts::

    python -m repro run pharmacy          # full pipeline on one workload
    python -m repro table1                # benchmark characterization
    python -m repro table2 --workloads mcf,vpr.r
    python -m repro figure 4              # scope x length sweep
    python -m repro figure 4 -j 4         # ... across 4 processes
    python -m repro branches vpr.p        # branch pre-execution
    python -m repro cache info            # persistent-cache contents
    python -m repro lint all --strict     # static lints, all workloads
    python -m repro lint mcf --pthreads   # ... plus p-thread verification
    python -m repro verify-codegen all --strict   # translation-validate codegen
    python -m repro bench speed           # timing engine throughput
    python -m repro serve --port 8421     # HTTP/JSON selection daemon
    python -m repro fuzz --seeds 25       # differential fuzzing campaign
    python -m repro fuzz --replay corpus/fuzz-000042-stride.json
    python -m repro obs report            # metrics registry report
    python -m repro obs check --input results/metrics_snapshot.json

Sweeps accept ``--workloads`` to restrict the suite, ``--jobs/-j`` to
fan cells out over worker processes (default ``REPRO_JOBS``, then the
CPU count), ``--no-cache`` to skip the persistent artifact cache, and
``--perf`` to append a stage-timing / cache-effectiveness report (span
seconds and the registry's stage counters).
Every pipeline command also takes ``--trace PATH`` (write the
invocation's nested span tree as JSON) and ``--metrics PATH`` (write a
metrics snapshot as JSON) — see DESIGN.md's Observability section.
Everything prints to stdout in the same fixed-width format the benches
write to ``results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.harness.artifacts import ArtifactCache, publish_cache_gauges
from repro.harness.experiment import ExperimentConfig, ExperimentRunner
from repro.harness.figures import (
    figure4_scope_length,
    figure5_opt_merge,
    figure6_granularity,
    figure7_input_sets,
    figure8_memory_latency,
    figure8b_processor_width,
)
from repro.harness.parallel import SweepExecutor
from repro.harness.report import render_perf
from repro.harness.tables import render_table1, render_table2, table1, table2
from repro.obs import (
    check_snapshot,
    get_registry,
    get_tracer,
    load_snapshot,
    render_report,
    reset_registry,
    reset_tracer,
    snapshot_document,
    to_prometheus,
    write_snapshot,
)
from repro.workloads.suite import SUITE

_FIGURES = {
    "4": figure4_scope_length,
    "5": figure5_opt_merge,
    "6": figure6_granularity,
    "7": figure7_input_sets,
    "8": figure8_memory_latency,
    "8b": figure8b_processor_width,
}


def _parse_workloads(text: Optional[str]) -> List[str]:
    if not text:
        return list(SUITE)
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = set(names) - set(SUITE) - {"pharmacy"}
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    return names


def _artifacts(args: argparse.Namespace) -> Optional[ArtifactCache]:
    if getattr(args, "no_cache", False):
        return None
    return ArtifactCache.from_env()


def _executor(args: argparse.Namespace) -> SweepExecutor:
    try:
        return SweepExecutor(jobs=args.jobs, artifacts=_artifacts(args))
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def _print_perf(args: argparse.Namespace) -> None:
    """The ``--perf`` report, from this invocation's spans and metrics."""
    if getattr(args, "perf", False):
        print()
        print(render_perf(get_tracer().root, get_registry().snapshot()))


def _export_observability(args: argparse.Namespace) -> None:
    """Write the span tree / metrics snapshot the flags asked for."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        get_tracer().export(trace_path)
        print(f"wrote {trace_path}")
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        publish_cache_gauges(_artifacts(args))
        write_snapshot(metrics_path, get_registry())
        print(f"wrote {metrics_path}")


def _apply_verify(args: argparse.Namespace) -> None:
    """Turn ``--verify`` into the ``REPRO_VERIFY`` environment switch.

    The environment variable (rather than a parameter threaded through
    every stage) is what parallel sweep workers inherit, so ``--verify``
    covers them too.
    """
    if getattr(args, "verify", False):
        from repro.analysis.report import VERIFY_ENV

        os.environ[VERIFY_ENV] = "1"


def _cmd_run(args: argparse.Namespace) -> None:
    _apply_verify(args)
    runner = ExperimentRunner(artifacts=_artifacts(args))
    result = runner.run(
        ExperimentConfig(workload=args.workload, validate=args.validate)
    )
    print(result.selection.describe())
    for pthread in result.selection.pthreads:
        print(f"\ntrigger #{pthread.trigger_pc:04d}:")
        print(pthread.body.render())
    print()
    print(result.baseline.describe())
    print(result.preexec.describe())
    for stats in result.validation.values():
        print(stats.describe())
    print(
        f"\nspeedup {result.speedup:+.1%}  coverage {result.coverage:.1%} "
        f"(full {result.full_coverage:.1%})"
    )
    _print_perf(args)


def _cmd_table(args: argparse.Namespace) -> None:
    _apply_verify(args)
    executor = _executor(args)
    workloads = _parse_workloads(args.workloads)
    if args.which == "1":
        print(render_table1(table1(workloads=workloads, executor=executor)))
    else:
        print(render_table2(table2(workloads=workloads, executor=executor)))
    _print_perf(args)


def _cmd_figure(args: argparse.Namespace) -> None:
    _apply_verify(args)
    executor = _executor(args)
    workloads = _parse_workloads(args.workloads)
    figure_fn = _FIGURES.get(args.which)
    if figure_fn is None:
        raise SystemExit(
            f"unknown figure {args.which!r}; known: {sorted(_FIGURES)}"
        )
    print(figure_fn(workloads=workloads, executor=executor).render())
    _print_perf(args)


def _cmd_cache(args: argparse.Namespace) -> None:
    cache = ArtifactCache.from_env()
    if cache is None:
        print("persistent cache disabled (REPRO_CACHE_DIR is off)")
        return
    kind = args.kind
    if args.action == "clear":
        try:
            removed = cache.clear(kind)
        except KeyError:
            raise SystemExit(f"unknown artifact kind: {kind}")
        what = f"{kind} artifact(s)" if kind else "artifact(s)"
        print(f"removed {removed} {what} from {cache.root}")
        return
    counts = cache.entry_count()
    print(f"cache root: {cache.root}")
    for name in sorted(counts):
        size = cache.size_bytes(name) / 1024.0
        print(f"  {name:<11} {counts[name]:>5} artifact(s)  {size:9.1f} KiB")
    print(f"  total size  {cache.size_bytes() / 1024.0:.1f} KiB")


def _select_for(name: str, input_name: str):
    """Trace + select p-threads for ``name`` with a fixed unassisted IPC.

    The fixed IPC skips the expensive baseline timing simulation: both
    callers (p-thread verification, pre-exec codegen validation) need a
    structurally representative selection, not the model's tuned one.
    Returns ``(workload, constraints, selection)``.
    """
    from repro.engine import run_program
    from repro.model import ModelParams, SelectionConstraints
    from repro.selection import select_pthreads
    from repro.workloads import build

    workload = build(name, input_name)
    trace = run_program(workload.program, workload.hierarchy)
    params = ModelParams(
        bw_seq=8,
        unassisted_ipc=1.0,
        mem_latency=workload.hierarchy.mem_latency,
        load_latency=workload.hierarchy.l1.hit_latency,
    )
    constraints = SelectionConstraints()
    selection = select_pthreads(
        workload.program, trace.trace, params, constraints
    )
    return workload, constraints, selection


def _pthread_diagnostics(name: str, input_name: str):
    """Trace + select ``name`` and verify the resulting p-threads."""
    from repro.analysis.verifier import verify_selection

    workload, constraints, selection = _select_for(name, input_name)
    return verify_selection(
        workload.program, selection.pthreads, constraints
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        Severity,
        lint_workload,
        render_text,
        sort_diagnostics,
    )

    names = (
        SUITE + ["pharmacy"] if args.workload == "all" else [args.workload]
    )
    worst: Optional[Severity] = None
    per_workload = {}
    for name in names:
        diagnostics = lint_workload(name, args.input)
        if args.pthreads:
            diagnostics = diagnostics + _pthread_diagnostics(
                name, args.input
            )
        per_workload[name] = sort_diagnostics(diagnostics)
        for diagnostic in diagnostics:
            if worst is None or diagnostic.severity > worst:
                worst = diagnostic.severity
    if args.format == "json":
        payload = {
            "input": args.input,
            "workloads": {
                name: [d.to_dict() for d in diags]
                for name, diags in per_workload.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, diags in per_workload.items():
            print(render_text(diags, title=f"{name} ({args.input}):"))
    if args.strict and worst is Severity.ERROR:
        return 1
    return 0


def _cmd_parity(args: argparse.Namespace) -> int:
    from repro.harness.parity import parity_suite, render_parity

    names = (
        SUITE + ["pharmacy"] if args.workload == "all" else [args.workload]
    )
    reports = parity_suite(
        names,
        input_name=args.input,
        max_instructions=args.max_instructions,
    )
    if args.format == "json":
        payload = {
            "input": args.input,
            "max_instructions": args.max_instructions,
            "ok": all(report.ok for report in reports),
            "reports": [report.to_dict() for report in reports],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_parity(reports))
    if args.strict and not all(report.ok for report in reports):
        return 1
    return 0


#: Timing mode shapes each verify-codegen variant must validate:
#: (launching, stealing, prefetching) triples matching what
#: TimingSimulator.run() compiles for the paper's simulation modes.
_CODEGEN_TIMING_SHAPES = {
    # BASELINE / PERFECT_L2 (no p-threads), without and with the
    # stride-prefetcher machine configuration.
    "baseline": ((False, False, False), (False, False, True)),
    # PRE_EXECUTION / OVERHEAD_* (steal=True) and LATENCY_ONLY
    # (steal=False), launching at the selection's trigger PCs.
    "pre-exec": ((True, True, False), (True, False, False)),
}


def _cmd_verify_codegen(args: argparse.Namespace) -> int:
    from repro.analysis import Severity
    from repro.timing import TimingSimulator
    from repro.workloads import build

    names = (
        SUITE + ["pharmacy"] if args.workload == "all" else [args.workload]
    )
    variants = (
        ["baseline", "pre-exec"]
        if args.variant == "all"
        else [args.variant]
    )
    rows = []  # (workload, target, TransvalResult)
    for name in names:
        workload = build(name, args.input)
        for variant in variants:
            if variant == "pre-exec":
                _, _, selection = _select_for(name, args.input)
                tsim = TimingSimulator(
                    workload.program,
                    workload.hierarchy,
                    pthreads=selection.pthreads,
                )
            else:
                tsim = TimingSimulator(workload.program, workload.hierarchy)
            for launching, stealing, prefetching in _CODEGEN_TIMING_SHAPES[
                variant
            ]:
                rows.append((
                    name,
                    f"timing {variant} launching={int(launching)} "
                    f"stealing={int(stealing)} "
                    f"prefetching={int(prefetching)}",
                    tsim.validate_codegen(launching, stealing, prefetching),
                ))

    failed = sum(
        1
        for _, _, result in rows
        if any(d.severity is Severity.ERROR for d in result.diagnostics)
    )
    if args.format == "json":
        payload = {
            "input": args.input,
            "variant": args.variant,
            "ok": failed == 0,
            "targets": [
                {
                    "workload": name,
                    "target": target,
                    "blocks_checked": result.blocks_checked,
                    "blocks_failed": result.blocks_failed,
                    "blocks_unvalidatable": result.blocks_unvalidatable,
                    "fallbacks": result.fallbacks,
                    "diagnostics": [
                        d.to_dict() for d in result.diagnostics
                    ],
                }
                for name, target, result in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(target) for _, target, _ in rows)
        for name, target, result in rows:
            status = "ok" if not result.blocks_failed else "FAILED"
            if result.fallbacks:
                status = "fallback"
            print(
                f"{name:<10} {target:<{width}}  "
                f"blocks={result.blocks_checked:<4} "
                f"failed={result.blocks_failed} "
                f"unvalidatable={result.blocks_unvalidatable}  {status}"
            )
            for diagnostic in result.diagnostics:
                print(f"    {diagnostic.render()}")
        blocks = sum(result.blocks_checked for _, _, result in rows)
        print(
            f"\n{len(rows)} target(s), {blocks} block(s) validated, "
            f"{failed} target(s) with errors"
        )
    if args.strict and failed:
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness import simspeed

    workloads = _parse_workloads(args.workloads)
    try:
        payload = simspeed.bench_speed(
            workloads=workloads, repeats=args.repeats
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    print(simspeed.render(payload))
    if args.output:
        simspeed.write_results(payload, args.output)
        print(f"\nwrote {args.output}")
    if args.check:
        problems = simspeed.check_payload(payload)
        if problems:
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        print("all speed checks passed")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig
    from repro.serve.http import run_server

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_size=args.queue_size,
            max_instructions=args.max_instructions,
            default_budget_seconds=args.budget,
            no_cache=getattr(args, "no_cache", False),
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")

    def ready(host: str, port: int) -> None:
        print(f"repro serve listening on http://{host}:{port}", flush=True)

    try:
        asyncio.run(run_server(config, ready=ready))
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _fuzz_shapes() -> Sequence[str]:
    from repro.fuzz.generator import SHAPES

    return SHAPES


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import load_reproducer, run_campaign, run_oracle

    if args.replay:
        rc = 0
        for path in args.replay:
            workload = load_reproducer(path)
            report = run_oracle(
                workload, max_instructions=args.max_instructions
            )
            print(report.render())
            if not report.ok:
                rc = 1
        return rc

    summary = run_campaign(
        seeds=args.seeds,
        base_seed=args.base_seed,
        shape=args.shape,
        budget_seconds=args.budget,
        do_shrink=args.shrink,
        corpus_dir=args.corpus,
        max_instructions=args.max_instructions,
        log=print,
    )
    print(
        f"\n{summary['seeds_run']} seed(s): {summary['ok']} ok, "
        f"{summary['failed']} failed "
        f"({summary['elapsed_seconds']:.1f}s)"
    )
    if args.report:
        out = Path(args.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.report}")
    return 1 if summary["failed"] else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.action == "check":
        if not args.input:
            raise SystemExit("obs check requires --input SNAPSHOT.json")
        doc = load_snapshot(args.input)
        problems = check_snapshot(doc)
        if problems:
            for problem in problems:
                print(f"SCHEMA CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        print(f"{args.input}: metric catalog intact")
        return 0

    if args.input:
        doc = load_snapshot(args.input)
        metrics = doc["metrics"]
    else:
        # No snapshot given: run a small pipeline so the report shows
        # live numbers from every registered subsystem.
        runner = ExperimentRunner(artifacts=_artifacts(args))
        runner.run(ExperimentConfig(workload=args.workload))
        publish_cache_gauges(runner.artifacts)
        doc = snapshot_document(get_registry())
        metrics = doc["metrics"]
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "prom":
        print(to_prometheus(metrics))
    else:
        print(render_report(metrics))
    return 0


def _cmd_branches(args: argparse.Namespace) -> None:
    from repro.engine import run_program
    from repro.model import ModelParams, SelectionConstraints
    from repro.selection import select_branch_pthreads
    from repro.timing import BASELINE, PRE_EXECUTION, TimingSimulator
    from repro.workloads import build

    workload = build(args.workload, "train")
    trace = run_program(workload.program, workload.hierarchy)
    base = TimingSimulator(workload.program, workload.hierarchy).run(BASELINE)
    params = ModelParams(
        bw_seq=8,
        unassisted_ipc=max(base.ipc, 0.05),
        mem_latency=workload.hierarchy.mem_latency,
        load_latency=workload.hierarchy.l1.hit_latency,
    )
    selection = select_branch_pthreads(
        workload.program, trace.trace, params, SelectionConstraints()
    )
    print(selection.describe())
    pre = TimingSimulator(
        workload.program, workload.hierarchy, pthreads=selection.pthreads
    ).run(PRE_EXECUTION)
    print(base.describe())
    print(pre.describe())
    print(
        f"mispredictions {pre.mispredictions}, suppressed "
        f"{pre.mispredicts_covered}; speedup {pre.speedup_over(base):+.1%}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Automated pre-execution thread selection (Roth & Sohi 2002) "
            "— pipeline driver"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, jobs: bool = True) -> None:
        p.add_argument(
            "--no-cache", action="store_true",
            help="skip the persistent artifact cache for this invocation",
        )
        p.add_argument(
            "--perf", action="store_true",
            help="append a stage-timing / cache hit-miss report",
        )
        p.add_argument(
            "--verify", action="store_true",
            help=(
                "statically verify p-thread invariants after every "
                "transformation (sets REPRO_VERIFY=1)"
            ),
        )
        add_observability(p)
        if jobs:
            p.add_argument(
                "--jobs", "-j", type=int, default=None,
                help="worker processes (default REPRO_JOBS, then CPU count)",
            )

    def add_observability(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write this invocation's span tree as JSON to PATH",
        )
        p.add_argument(
            "--metrics", default=None, metavar="PATH",
            help="write a metrics snapshot as JSON to PATH",
        )

    run_parser = sub.add_parser("run", help="full pipeline on one workload")
    run_parser.add_argument("workload", choices=SUITE + ["pharmacy"])
    run_parser.add_argument(
        "--validate", action="store_true",
        help="also run the overhead-only and latency-only modes",
    )
    add_common(run_parser, jobs=False)
    run_parser.set_defaults(func=_cmd_run)

    for which in ("1", "2"):
        table_parser = sub.add_parser(
            f"table{which}", help=f"regenerate Table {which}"
        )
        table_parser.add_argument("--workloads", default=None)
        add_common(table_parser)
        table_parser.set_defaults(func=_cmd_table, which=which)

    figure_parser = sub.add_parser("figure", help="regenerate a figure")
    figure_parser.add_argument("which", choices=sorted(_FIGURES))
    figure_parser.add_argument("--workloads", default=None)
    add_common(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    cache_parser.add_argument("action", choices=["info", "clear"])
    cache_parser.add_argument(
        "--kind", default=None,
        help=(
            "restrict clear to one artifact kind "
            "(trace, baseline, perfect_l2, selection)"
        ),
    )
    cache_parser.set_defaults(func=_cmd_cache)

    branch_parser = sub.add_parser(
        "branches", help="branch pre-execution on one workload"
    )
    branch_parser.add_argument("workload", choices=SUITE + ["pharmacy"])
    branch_parser.set_defaults(func=_cmd_branches)

    bench_parser = sub.add_parser(
        "bench", help="throughput of the timing simulator's two engines"
    )
    bench_parser.add_argument("what", choices=["speed"])
    bench_parser.add_argument(
        "--workloads", default=None,
        help="comma-separated workload subset (default: the full suite)",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3,
        help=(
            "interp/tiered run pairs per workload, at least 1 (default 3)"
        ),
    )
    bench_parser.add_argument(
        "--output", default=None,
        help="also write the JSON payload to this path",
    )
    bench_parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit non-zero if the median per-pair tiered/interp "
            "ratio is below 1.0"
        ),
    )
    bench_parser.set_defaults(func=_cmd_bench)

    serve_parser = sub.add_parser(
        "serve",
        help=(
            "long-lived HTTP/JSON daemon: submit workloads, get "
            "selections and stats from warm in-process caches"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8421,
        help="TCP port (default 8421; 0 picks an ephemeral port)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="worker threads, each running one request at a time (default 2)",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=32,
        help=(
            "bounded submission queue; a full queue sheds load with "
            "503 + Retry-After (default 32)"
        ),
    )
    serve_parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help=(
            "default per-request soft budget; requests may override "
            "with 'budget_seconds' (default: none)"
        ),
    )
    serve_parser.add_argument(
        "--max-instructions", type=int, default=10_000_000,
        help="per-experiment instruction cap (default 10000000)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent artifact cache for this daemon",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help=(
            "differential fuzzing: generate seeded workloads and "
            "cross-check engines, simulators, verifier, and model"
        ),
    )
    fuzz_parser.add_argument(
        "--seeds", type=int, default=25,
        help="number of seeds to run (default 25)",
    )
    fuzz_parser.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the range (default 0)",
    )
    fuzz_parser.add_argument(
        "--shape", choices=list(_fuzz_shapes()), default=None,
        help="fix every workload to one generator shape",
    )
    fuzz_parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; stops between seeds once exceeded",
    )
    fuzz_parser.add_argument(
        "--shrink", action="store_true",
        help="minimize failures and write reproducers to the corpus",
    )
    fuzz_parser.add_argument(
        "--corpus", default="corpus",
        help="reproducer directory (default corpus/)",
    )
    fuzz_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the JSON campaign summary to this path",
    )
    fuzz_parser.add_argument(
        "--max-instructions", type=int, default=400_000,
        help="per-simulation instruction cap (default 400000)",
    )
    fuzz_parser.add_argument(
        "--replay", nargs="+", default=None, metavar="FILE",
        help="replay corpus reproducer file(s) instead of generating",
    )
    add_observability(fuzz_parser)
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    obs_parser = sub.add_parser(
        "obs", help="observability: metric reports and snapshot checks"
    )
    obs_parser.add_argument(
        "action", choices=["report", "check"],
        help=(
            "report: print the metrics registry (populated by a pipeline "
            "run unless --input names a snapshot); check: validate a "
            "snapshot file against the metric catalog"
        ),
    )
    obs_parser.add_argument(
        "--input", default=None, metavar="PATH",
        help="read metrics from a snapshot file instead of running",
    )
    obs_parser.add_argument(
        "--workload", default="pharmacy", choices=SUITE + ["pharmacy"],
        help=(
            "workload the report runs to populate the registry when no "
            "--input is given (default pharmacy)"
        ),
    )
    obs_parser.add_argument(
        "--format", choices=["table", "json", "prom"], default="table",
        help="report output format (default table)",
    )
    add_observability(obs_parser)
    obs_parser.set_defaults(func=_cmd_obs)

    lint_parser = sub.add_parser(
        "lint", help="static lints and p-thread verification reports"
    )
    lint_parser.add_argument(
        "workload", choices=SUITE + ["pharmacy", "all"],
        help="workload to lint, or 'all' for the whole bundle",
    )
    lint_parser.add_argument(
        "--input", default="train", help="input set to build (default train)"
    )
    lint_parser.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any error-severity diagnostic is found",
    )
    lint_parser.add_argument(
        "--pthreads", action="store_true",
        help="also run selection and verify the resulting p-threads",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    parity_parser = sub.add_parser(
        "parity",
        help=(
            "cross-check the trace-driven and discrete-event timing "
            "models under the pinned parity contract"
        ),
    )
    parity_parser.add_argument(
        "workload", choices=SUITE + ["pharmacy", "all"],
        help="workload to compare, or 'all' for the whole bundle",
    )
    parity_parser.add_argument(
        "--input", default="train", help="input set to build (default train)"
    )
    parity_parser.add_argument(
        "--max-instructions", type=int, default=120_000,
        help="shared per-run instruction cap (default 120000)",
    )
    parity_parser.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    parity_parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any parity divergence",
    )
    add_observability(parity_parser)
    parity_parser.set_defaults(func=_cmd_parity)

    transval_parser = sub.add_parser(
        "verify-codegen",
        help=(
            "translation-validate code generation: prove every "
            "generated basic block equivalent to the interpreter "
            "semantics (CG diagnostics)"
        ),
    )
    transval_parser.add_argument(
        "workload", choices=SUITE + ["pharmacy", "all"],
        help="workload to validate, or 'all' for the whole bundle",
    )
    transval_parser.add_argument(
        "--input", default="train", help="input set to build (default train)"
    )
    transval_parser.add_argument(
        "--variant", choices=["baseline", "pre-exec", "all"], default="all",
        help=(
            "timing codegen variants to check: baseline (no p-threads), "
            "pre-exec (launch/steal shapes at selected trigger PCs), or "
            "all (default)"
        ),
    )
    transval_parser.add_argument(
        "--format", choices=["text", "json"], default="text",
    )
    transval_parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any error-severity diagnostic is found",
    )
    add_observability(transval_parser)
    transval_parser.set_defaults(func=_cmd_verify_codegen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # One invocation = one trace / one metric registry, even when main()
    # is driven repeatedly in-process (tests, scripting).
    reset_tracer()
    reset_registry()
    rc = args.func(args)
    _export_observability(args)
    return rc or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
