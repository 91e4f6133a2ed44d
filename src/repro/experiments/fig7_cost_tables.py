"""Figure 7 — cumulative network cost per query, **table caching**.

The paper plots the running WAN cost of each algorithm over the EDR
trace: the bypass-yield variants sit a factor of five to ten below GDS
and no-cache and track static table caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.experiments.common import (
    ExperimentContext,
    build_context,
    experiment_instrumentation,
    parallel_workers,
)
from repro.sim.reporting import cost_series_chart, format_table
from repro.sim.results import SimulationResult
from repro.sim.runner import compare_policies

#: Headline cache size (fraction of total DB bytes).
CACHE_FRACTION = 0.3

POLICIES = (
    "rate-profile",
    "online-by",
    "space-eff-by",
    "gds",
    "static",
    "no-cache",
)


@dataclass
class CostSeriesResult:
    granularity: str
    cache_fraction: float
    results: Dict[str, SimulationResult] = field(default_factory=dict)
    sequence_bytes: float = 0.0

    def total(self, name: str) -> float:
        return self.results[name].total_bytes

    @property
    def shape_holds(self) -> bool:
        """Bypass-yield ~5-10x below GDS and no-cache; static is the
        floor it approaches from above."""
        rate = self.total("rate-profile")
        if rate <= 0:
            return False
        beats_nocache = self.total("no-cache") / rate >= 4.0
        beats_gds = self.total("gds") / rate >= 4.0
        above_static = self.total("static") <= rate
        return beats_nocache and beats_gds and above_static


def run_cost_series(
    granularity: str,
    context: Optional[ExperimentContext] = None,
    cache_fraction: float = CACHE_FRACTION,
    policies: Sequence[str] = POLICIES,
) -> CostSeriesResult:
    """Shared driver for Figures 7 and 8."""
    if context is None:
        context = build_context("edr")
    capacity = context.capacity_for(cache_fraction)
    workers = parallel_workers()
    results = compare_policies(
        context.prepared,
        context.federation,
        capacity,
        granularity,
        policies=policies,
        record_series=True,
        parallel=workers > 1,
        max_workers=workers or None,
        instrumentation=experiment_instrumentation(),
    )
    return CostSeriesResult(
        granularity=granularity,
        cache_fraction=cache_fraction,
        results=results,
        sequence_bytes=float(context.prepared.sequence_bytes),
    )


def render_cost_series(result: CostSeriesResult, figure: str) -> str:
    chart = cost_series_chart(
        result.results,
        title=(
            f"{figure}: network cost of various algorithms for "
            f"{result.granularity} caching "
            f"(cache = {result.cache_fraction:.0%} of DB)"
        ),
    )
    rows = [
        [
            name,
            sim.total_bytes / 1e6,
            sim.total_bytes and result.sequence_bytes / sim.total_bytes,
            f"{sim.hit_rate:.2f}",
        ]
        for name, sim in result.results.items()
    ]
    table = format_table(
        ["algorithm", "total (MB)", "savings vs no-cache (x)", "hit rate"],
        rows,
    )
    verdict = (
        "paper shape (bypass-yield >=4x below GDS and no-cache, "
        "static <= rate-profile): "
        f"{'HOLDS' if result.shape_holds else 'VIOLATED'}"
    )
    return f"{chart}\n{table}\n{verdict}"


def run(
    context: Optional[ExperimentContext] = None,
    cache_fraction: float = CACHE_FRACTION,
) -> CostSeriesResult:
    return run_cost_series("table", context, cache_fraction)


def render(result: CostSeriesResult) -> str:
    return render_cost_series(result, "Figure 7")


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
