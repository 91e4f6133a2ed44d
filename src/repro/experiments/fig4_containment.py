"""Figure 4 — query containment.

The paper takes a sub-sequence of object-identifying queries from the
EDR trace, evaluates which celestial object identifiers each returns,
and plots (query number, objID) points: points on the same horizontal
line mean reuse, a prerequisite for semantic caching.  The finding:
"few objects experience reuse in any portion of the trace over a large
universe of objects" — semantic caching has nothing to work with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.common import ExperimentContext, build_context
from repro.sim.reporting import ascii_chart
from repro.workload.containment import (
    ContainmentReport,
    analyze_containment,
)


@dataclass
class Fig4Result:
    report: ContainmentReport
    window: int

    @property
    def shape_holds(self) -> bool:
        """The paper's qualitative finding: containment is rare (among
        a non-empty sample of object queries)."""
        report = self.report
        return report.total_queries > 0 and report.containment_rate < 0.15


def run(
    context: Optional[ExperimentContext] = None,
    window: int = 50,
    max_queries: int = 150,
) -> Fig4Result:
    if context is None:
        context = build_context("edr")
    report = analyze_containment(
        context.trace, context.mediator, window=window,
        max_queries=max_queries,
    )
    return Fig4Result(report=report, window=window)


def render(result: Fig4Result) -> str:
    report = result.report
    # Subsample scatter for readability: identity-scale ids only.
    points = [(float(q), float(o)) for q, o in report.points]
    chart = ascii_chart(
        {"objID returned": points[:4000]},
        title=(
            "Figure 4: query containment "
            f"(window={result.window} object queries)"
        ),
        x_label="query number",
        y_label="object identifier",
    )
    summary = (
        f"object queries analyzed: {report.total_queries}\n"
        f"contained queries:       {report.contained_queries} "
        f"({report.containment_rate:.1%})\n"
        f"distinct objIDs:         {report.distinct_ids}\n"
        f"objIDs reused by 2+ queries: {report.reused_ids} "
        f"({report.reuse_rate:.1%})\n"
        f"paper shape (containment rare): "
        f"{'HOLDS' if result.shape_holds else 'VIOLATED'}"
    )
    return f"{chart}\n{summary}"


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
