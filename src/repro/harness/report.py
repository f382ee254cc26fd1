"""Plain-text rendering of tables and figure series.

The paper's figures are bar charts; the harness prints the same data as
fixed-width tables — one row per benchmark, one column group per bar —
so every number is directly comparable with the published chart.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from repro.obs import Span


def fmt(value: Any, precision: int = 2) -> str:
    """Human formatting: floats rounded, ints plain, None blank."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render a fixed-width table with right-aligned numeric columns."""
    text_rows = [[fmt(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.rjust(widths[i]) if i else cell.ljust(widths[i])
            for i, cell in enumerate(cells)
        )

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)


def render_perf(
    spans: Span,
    metrics: Mapping[str, Mapping[str, Any]],
    title: str = "Harness performance",
) -> str:
    """Per-stage report from a span tree and a registry snapshot.

    One row per stage kind the runner counted: the seconds its spans
    took (loading a cached stage included), how its requests were
    satisfied (computed fresh, in-memory hit, persistent-cache hit),
    and simulation throughput (million simulated instructions per span
    second) for stages that simulate.  ``spans`` is the tree to read
    (a tracer's ``root``); ``metrics`` holds the ``harness.stage.*``
    counters.
    """
    outcomes = ("misses", "hits", "disk_hits")

    def count(stage: str, what: str) -> int:
        return metrics.get(f"harness.stage.{stage}.{what}", {}).get("value", 0)

    registered = {
        name.split(".")[2] for name in metrics if name.startswith("harness.stage.")
    }
    stages = sorted(
        stage for stage in registered if any(count(stage, o) for o in outcomes)
    )
    seconds = spans.seconds_by_name(stages)

    def row(label: str, kinds: Sequence[str]) -> List[Any]:
        span_seconds = sum(seconds.get(kind, 0.0) for kind in kinds)
        instructions = sum(count(kind, "instructions") for kind in kinds)
        mips = ""
        if instructions and span_seconds > 0:
            mips = f"{instructions / span_seconds / 1e6:.2f}"
        return [
            label,
            span_seconds,
            *(sum(count(kind, o) for kind in kinds) for o in outcomes),
            mips,
        ]

    rows = [row(stage, [stage]) for stage in stages]
    rows.append(row("total", stages))
    return render_table(
        ["stage", "span secs", "computed", "mem hits", "disk hits", "MIPS"],
        rows,
        title=title,
        precision=3,
    )


def render_series(
    title: str,
    group_labels: Sequence[str],
    metric_names: Sequence[str],
    data: Mapping[str, Mapping[str, Sequence[float]]],
    precision: int = 2,
) -> str:
    """Render figure-style data: per benchmark, one row per metric.

    Args:
        title: figure title.
        group_labels: the bar labels within each group (e.g. the four
            scope/length configurations).
        metric_names: metrics to print (keys into the inner mapping).
        data: ``data[benchmark][metric][bar_index]``.
    """
    headers = ["benchmark / metric"] + list(group_labels)
    rows: List[List[Any]] = []
    for benchmark, metrics in data.items():
        for metric in metric_names:
            series = metrics.get(metric)
            if series is None:
                continue
            rows.append([f"{benchmark} {metric}"] + list(series))
        rows.append([""] * (len(group_labels) + 1))
    if rows and all(cell == "" for cell in rows[-1]):
        rows.pop()
    return render_table(headers, rows, title=title, precision=precision)
