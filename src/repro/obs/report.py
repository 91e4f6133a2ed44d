"""``repro-report``: render one trace, or diff two runs as a CI gate.

Single-trace mode loads a JSONL decision trace (manifest + events) and
renders the run through the existing :mod:`repro.sim.reporting`
dashboards: manifest, WAN accounting summary, per-query WAN byte
distribution, decision tail, cumulative-cost chart.

Diff mode (``--diff BASE CANDIDATE``) replays the paper's accounting
argument across two runs: total WAN bytes, link-weighted cost, hit
rate, and the realized byte-yield hit rate.  Any metric that worsens
beyond ``--threshold`` percent is flagged, and the process exits
non-zero — usable directly as a CI regression gate::

    repro-report --diff baseline.jsonl candidate.jsonl --threshold 1.0

Flamegraph mode (``--flamegraph``) aggregates a *span* file (written
by :class:`repro.obs.spans.SpanWriter`) into the top-down stage tree
with inclusive/exclusive logical time and byte totals.

SLO mode (``--slo spec.json``) evaluates a declarative SLO spec
(:mod:`repro.obs.slo`) against the decision trace — and, with
``--spans``, against per-stage span latencies — and exits 1 when any
objective is violated or burning::

    repro-report run.jsonl --slo slo.json --spans run.spans.jsonl

Exit codes: 0 clean, 1 regressions/SLO failures found, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cli import quiet_on_broken_pipe
from repro.core.instrumentation import DecisionEvent
from repro.errors import ReproError
from repro.obs.manifest import RunManifest
from repro.obs.metrics import LogHistogram
from repro.obs.trace_io import read_trace
from repro.sim.reporting import (
    cost_series_chart,
    format_decision_trace,
    format_table,
)
from repro.sim.results import SimulationResult

#: Cap on reconstructed cumulative-series points (memory on long traces).
SERIES_POINTS = 512


def result_from_trace(
    manifest: RunManifest, events: Sequence[DecisionEvent]
) -> SimulationResult:
    """Rebuild the :class:`SimulationResult` of a persisted trace —
    the one fold every report reads, charged by the method the live
    run used."""
    result = SimulationResult(
        policy_name=manifest.policy,
        granularity=manifest.granularity,
        capacity_bytes=manifest.capacity_bytes,
    )
    stride = max(1, len(events) // SERIES_POINTS)
    result.series_stride = stride
    cumulative = 0.0
    for i, event in enumerate(events):
        # The event is its own accounting and its own decision.
        result.charge(
            event,
            event,
            event.peer_hits,
            event.outcome,
            event.retries,
            event.failed_loads,
            event.yield_bytes,
        )
        cumulative += event.wan_bytes
        if (i + 1) % stride == 0 or i == len(events) - 1:
            result.cumulative_bytes.append(cumulative)
    result.queries = len(events)
    return result


def render_report(
    manifest: RunManifest,
    events: Sequence[DecisionEvent],
    limit: int = 15,
) -> str:
    """The single-trace dashboard."""
    result = result_from_trace(manifest, events)
    breakdown = result.breakdown
    sections: List[str] = [
        format_table(
            ["field", "value"],
            [[key, value] for key, value in manifest.describe().items()],
            title="run manifest",
        )
    ]
    sections.append(
        format_table(
            ["metric", "value"],
            [
                ["queries", result.queries],
                ["served from cache", result.served_queries],
                ["hit rate", round(result.hit_rate, 4)],
                ["byte-yield hit rate",
                 round(result.byte_yield_hit_rate, 4)],
                ["object loads", result.loads],
                ["evictions", result.evictions],
                ["WAN load bytes", int(breakdown.load_bytes)],
                ["WAN bypass bytes", int(breakdown.bypass_bytes)],
                ["WAN retry bytes", int(breakdown.retry_bytes)],
                ["WAN total bytes", int(result.total_bytes)],
                ["weighted WAN cost", result.weighted_cost],
                ["result yield bytes", result.yield_bytes],
                ["retries", result.retries],
                ["availability", round(result.availability, 4)],
            ],
            title="run summary",
        )
    )
    if events:
        histogram = LogHistogram("query_wan_bytes")
        for event in events:
            histogram.observe(event.wan_bytes)
        sections.append(
            format_table(
                ["per-query WAN bytes", "queries"],
                [list(row) for row in histogram.rows()],
                title="WAN distribution (log2 buckets)",
            )
        )
        sections.append(
            cost_series_chart(
                {manifest.policy: result},
                title="cumulative WAN bytes",
            )
        )
        sections.append(
            format_decision_trace(events, limit=limit)
        )
    else:
        sections.append("(trace holds no decision events)")
    return "\n\n".join(sections)


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric between a baseline and a candidate run."""

    name: str
    baseline: float
    candidate: float
    higher_is_better: bool
    gated: bool

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    def relative_regression(self) -> float:
        """How much worse the candidate is, as a fraction (>= 0)."""
        worsening = (
            self.baseline - self.candidate
            if self.higher_is_better
            else self.candidate - self.baseline
        )
        if worsening <= 0:
            return 0.0
        if self.baseline == 0:
            return float("inf")
        return worsening / abs(self.baseline)

    def is_regression(self, threshold_fraction: float) -> bool:
        return self.gated and (
            self.relative_regression() > threshold_fraction
        )


#: What ``--diff`` compares: (metric, how it reads off a result, higher
#: is better, gated).  Byte totals are integral floats and print as
#: integers; a table cell prints a large float in %g.
_DIFF_METRICS = (
    ("wan_bytes", lambda r: int(r.total_bytes), False, True),
    ("weighted_cost", lambda r: r.weighted_cost, False, True),
    ("hit_rate", lambda r: r.hit_rate, True, True),
    ("byte_yield_hit_rate", lambda r: r.byte_yield_hit_rate, True, True),
    ("load_bytes", lambda r: int(r.breakdown.load_bytes), False, False),
    ("bypass_bytes", lambda r: int(r.breakdown.bypass_bytes), False, False),
    ("availability", lambda r: r.availability, True, True),
    ("retry_bytes", lambda r: r.breakdown.retry_bytes, False, False),
    ("retries", lambda r: float(r.retries), False, False),
    ("evictions", lambda r: float(r.evictions), False, False),
    ("queries", lambda r: float(r.queries), True, False),
)


def diff_metrics(
    baseline: SimulationResult, candidate: SimulationResult
) -> List[MetricDelta]:
    """Per-metric comparison; gated rows drive the exit code."""
    return [
        MetricDelta(name, read(baseline), read(candidate), higher, gated)
        for name, read, higher, gated in _DIFF_METRICS
    ]


def render_diff(
    base_manifest: RunManifest,
    candidate_manifest: RunManifest,
    deltas: Sequence[MetricDelta],
    threshold_fraction: float,
) -> Tuple[str, bool]:
    """(report text, any_regression) for two compared runs."""
    sections: List[str] = []
    identity_rows = [
        [field, getattr(base_manifest, field),
         getattr(candidate_manifest, field)]
        for field in (
            "workload", "policy", "granularity", "capacity_bytes",
            "seed", "source", "package_version",
        )
    ]
    sections.append(
        format_table(
            ["field", "baseline", "candidate"],
            identity_rows,
            title="compared runs",
        )
    )
    mismatched = [
        row[0]
        for row in identity_rows
        if row[0] not in ("policy", "package_version") and row[1] != row[2]
    ]
    if mismatched:
        sections.append(
            "note: runs differ in "
            + ", ".join(str(name) for name in mismatched)
            + " — deltas compare different experiments"
        )

    any_regression = False
    rows: List[List[object]] = []
    for delta in deltas:
        regressed = delta.is_regression(threshold_fraction)
        any_regression = any_regression or regressed
        if regressed:
            status = "REGRESSION"
        elif delta.relative_regression() > 0:
            status = "worse (within threshold)"
        elif delta.delta == 0:
            status = "unchanged"
        else:
            status = "improved"
        rows.append(
            [
                delta.name,
                delta.baseline,
                delta.candidate,
                delta.delta,
                (
                    f"{delta.relative_regression() * 100:.2f}%"
                    if delta.relative_regression() != float("inf")
                    else "inf"
                ),
                status if delta.gated else f"({status})",
            ]
        )
    sections.append(
        format_table(
            ["metric", "baseline", "candidate", "delta",
             "worse by", "status"],
            rows,
            title=(
                f"regression gate (threshold "
                f"{threshold_fraction * 100:.2f}%; "
                f"ungated rows in parentheses)"
            ),
        )
    )
    verdict = (
        "REGRESSIONS FOUND" if any_regression else "no regressions"
    )
    sections.append(f"verdict: {verdict}")
    return "\n\n".join(sections), any_regression


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=(
            "Render a recorded decision trace, or diff two traces and "
            "gate on WAN/hit-rate regressions."
        ),
    )
    parser.add_argument(
        "traces", nargs="+",
        help="one trace to report on, or two with --diff",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help="compare two traces: BASELINE CANDIDATE",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.0, metavar="PCT",
        help=(
            "allowed per-metric worsening in percent before a gated "
            "metric counts as a regression (default 0)"
        ),
    )
    parser.add_argument(
        "--limit", type=int, default=15,
        help="decision-trace tail length in single-trace mode",
    )
    parser.add_argument(
        "--flamegraph", action="store_true",
        help=(
            "render the top-down stage flamegraph of a span file "
            "(pass the .spans.jsonl written by the tracer)"
        ),
    )
    parser.add_argument(
        "--slo", metavar="SPEC",
        help=(
            "evaluate a JSON SLO spec against the trace and exit 1 on "
            "any violated or burning objective"
        ),
    )
    parser.add_argument(
        "--spans", metavar="FILE",
        help=(
            "span file feeding stage-latency objectives in --slo mode"
        ),
    )
    return parser


def run_flamegraph(span_path: str) -> int:
    """``--flamegraph``: aggregate a span file into the stage tree."""
    from repro.obs.spans import SpanReader, aggregate_flame, render_flamegraph

    reader = SpanReader(span_path)
    spans = reader.read_all()
    if reader.truncated:
        print(
            f"note: {span_path} ends in a torn line (crash mid-write); "
            f"reporting the complete prefix",
            file=sys.stderr,
        )
    if not spans:
        print(f"{span_path}: span file holds no spans", file=sys.stderr)
        return 2
    header = reader.header
    print(
        f"span trace {header.get('trace_id', '?')} "
        f"(seed {header.get('seed', '?')}, "
        f"run {header.get('run_label', '?')}): {len(spans)} spans"
    )
    print()
    print(render_flamegraph(aggregate_flame(spans)))
    return 0


def run_slo(
    trace_path: str, spec_path: str, span_path: Optional[str]
) -> int:
    """``--slo``: gate a recorded run on a declarative SLO spec."""
    from repro.obs.slo import SLOSpec, evaluate_sources, render_slo_report
    from repro.obs.spans import SpanReader

    spec = SLOSpec.load(spec_path)
    _, events = read_trace(trace_path)
    spans = SpanReader(span_path).read_all() if span_path else ()
    report = evaluate_sources(spec, events=events, spans=spans)
    print(render_slo_report(report))
    return 0 if report.ok else 1


@quiet_on_broken_pipe
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.threshold < 0:
        print("--threshold must be >= 0", file=sys.stderr)
        return 2
    modes = sum(
        1 for on in (args.diff, args.flamegraph, bool(args.slo)) if on
    )
    if modes > 1:
        print(
            "--diff, --flamegraph, and --slo are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.diff and len(args.traces) != 2:
        print(
            "--diff needs exactly two traces: BASELINE CANDIDATE",
            file=sys.stderr,
        )
        return 2
    if not args.diff and len(args.traces) != 1:
        print(
            "pass one trace, or two with --diff", file=sys.stderr
        )
        return 2

    try:
        if args.flamegraph:
            return run_flamegraph(args.traces[0])
        if args.slo:
            return run_slo(args.traces[0], args.slo, args.spans)
        if args.diff:
            base_manifest, base_events = read_trace(args.traces[0])
            cand_manifest, cand_events = read_trace(args.traces[1])
            text, any_regression = render_diff(
                base_manifest,
                cand_manifest,
                diff_metrics(
                    result_from_trace(base_manifest, base_events),
                    result_from_trace(cand_manifest, cand_events),
                ),
                args.threshold / 100.0,
            )
            print(text)
            return 1 if any_regression else 0
        manifest, events = read_trace(args.traces[0])
        print(render_report(manifest, events, limit=args.limit))
        return 0
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
