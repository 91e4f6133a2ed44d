"""Plain-text rendering of experiment output: tables and ASCII charts.

The experiment modules print the same rows and series the paper's
tables and figures report; these helpers keep that presentation consistent.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.instrumentation import DecisionEvent
from repro.sim.results import SimulationResult, SweepResult


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table."""
    columns = [list(map(_cell, column)) for column in zip(*rows)] if rows \
        else [[] for _ in headers]
    widths = []
    for i, header in enumerate(headers):
        cells = columns[i] if i < len(columns) else []
        widths.append(max([len(header)] + [len(c) for c in cells]))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                _cell(value).ljust(width)
                for value, width in zip(row, widths)
            )
        )
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0.00"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def _faulted(results: Dict[str, SimulationResult]) -> bool:
    """Whether any result shows fault-layer activity worth a column."""
    return any(
        result.retries
        or result.breakdown.retry_bytes
        or result.unavailable_queries
        or result.partial_queries
        for result in results.values()
    )


def breakdown_rows(
    results: Dict[str, SimulationResult],
    unit: float = 1e6,
) -> List[List[object]]:
    """Rows of a Tables 1-2 style cost breakdown (unit default: MB).

    On faulted runs two extra columns appear: retry waste (the WAN
    bytes failed attempts burned — part of the total) and availability.
    Fault-free runs keep the paper's exact three-column table.
    """
    show_faults = _faulted(results)
    rows: List[List[object]] = []
    for name, result in results.items():
        row: List[object] = [
            name,
            result.breakdown.bypass_bytes / unit,
            result.breakdown.load_bytes / unit,
        ]
        if show_faults:
            row.append(result.breakdown.retry_bytes / unit)
        row.append(result.total_bytes / unit)
        if show_faults:
            row.append(f"{result.availability:.4f}")
        rows.append(row)
    return rows


def format_breakdown(
    results: Dict[str, SimulationResult],
    title: str,
    sequence_bytes: float,
    unit: float = 1e6,
    unit_name: str = "MB",
) -> str:
    """The full Tables 1-2 presentation."""
    header = (
        f"{title}\n"
        f"sequence cost: {sequence_bytes / unit:.2f} {unit_name}"
    )
    headers = ["algorithm", f"bypass ({unit_name})", f"fetch ({unit_name})"]
    if _faulted(results):
        headers += [f"retry ({unit_name})", f"total ({unit_name})", "avail"]
    else:
        headers.append(f"total ({unit_name})")
    table = format_table(headers, breakdown_rows(results, unit))
    return f"{header}\n{table}"


def ascii_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 68,
    height: int = 18,
    log_y: bool = False,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (x, y) series as an ASCII scatter/line chart.

    Each series is drawn with its own marker character; the legend maps
    markers back to names.  ``log_y`` reproduces the paper's log-scale
    cost axes (Figures 9-10).
    """
    markers = "*o+x#@%&$~"
    points_by_marker: List[Tuple[str, str, Sequence[Tuple[float, float]]]] = []
    for i, (name, points) in enumerate(series.items()):
        points_by_marker.append((markers[i % len(markers)], name, points))

    all_points = [
        point for _, _, points in points_by_marker for point in points
    ]
    if not all_points:
        return f"{title}\n(no data)"

    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]

    def transform_y(value: float) -> float:
        if log_y:
            return math.log10(max(value, 1e-12))
        return value

    x_min, x_max = min(xs), max(xs)
    y_values = [transform_y(y) for y in ys]
    y_min, y_max = min(y_values), max(y_values)
    x_span = x_max - x_min or 1.0
    y_span = y_max - y_min or 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, _, points in points_by_marker:
        for x, y in points:
            col = int((x - x_min) / x_span * (width - 1))
            row = int((transform_y(y) - y_min) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{10 ** y_max:.3g}" if log_y else f"{y_max:.3g}"
    bottom_label = f"{10 ** y_min:.3g}" if log_y else f"{y_min:.3g}"
    lines.append(f"{y_label} (top={top_label}, bottom={bottom_label})")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {x_min:.3g} .. {x_max:.3g}")
    legend = ", ".join(
        f"{marker}={name}" for marker, name, _ in points_by_marker
    )
    lines.append(f" legend: {legend}")
    return "\n".join(lines)


def format_decision_trace(
    events: Iterable[DecisionEvent],
    limit: int = 20,
    title: str = "decision trace",
) -> str:
    """The per-query decision log as a table (most recent ``limit``)."""
    tail = (
        list(events)[-limit:] if limit else list(events)  # repro-lint: allow[RPR007] report rendering reads the caller's bounded event buffer
    )
    rows = [
        [
            event.index,
            event.source,
            event.policy,
            "serve" if event.hit else "bypass",
            len(event.loads),
            len(event.evictions),
            event.wan_bytes,
            event.weighted_cost,
        ]
        for event in tail
    ]
    return format_table(
        [
            "query", "source", "policy", "decision",
            "loads", "evictions", "wan bytes", "weighted cost",
        ],
        rows,
        title=title,
    )


def sweep_chart(sweep: SweepResult, title: str) -> str:
    """Figures 9-10: total cost vs cache fraction, log-scale y."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for name in sweep.policies():
        series[name] = [
            (point.cache_fraction * 100, max(point.total_bytes, 1.0))
            for point in sweep.series(name)
        ]
    return ascii_chart(
        series,
        log_y=True,
        title=title,
        x_label="% cache (of DB size)",
        y_label="total WAN bytes, log scale",
    )


def cost_series_chart(
    results: Dict[str, SimulationResult],
    title: str,
    stride: int = 0,
) -> str:
    """Figures 7-8: cumulative WAN bytes vs query number.

    Honors each result's ``series_stride`` so sampled series keep their
    true query-number axis.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for name, result in results.items():
        values = result.cumulative_bytes
        if not values:
            continue
        recorded = result.series_stride or 1
        step = stride or max(1, len(values) // 60)
        series[name] = [
            (float(i * recorded), values[i])
            for i in range(0, len(values), step)
        ]
    return ascii_chart(
        series,
        log_y=False,
        title=title,
        x_label="query number",
        y_label="cumulative WAN bytes",
    )
