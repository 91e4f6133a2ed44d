"""Table 1 — cost breakdown for **column caching** (EDR + DR1 sets).

For both trace flavors, report per-algorithm bypass cost, fetch cost,
and total, next to the sequence cost.  The paper's shape: the
workload-driven Rate-Profile usually wins, OnlineBY is close behind,
and SpaceEffBY "always lags behind, indicating that some amount of
state aids in making the bypass decision".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    ExperimentContext,
    build_context,
    parallel_workers,
)
from repro.sim.reporting import format_table
from repro.sim.results import SimulationResult
from repro.sim.runner import compare_policies

CACHE_FRACTION = 0.3
ALGORITHMS = ("rate-profile", "online-by", "space-eff-by")


@dataclass
class BreakdownSet:
    """One trace flavor's rows of the table."""

    flavor: str
    num_queries: int
    sequence_bytes: float
    results: Dict[str, SimulationResult] = field(default_factory=dict)


@dataclass
class BreakdownResult:
    granularity: str
    cache_fraction: float
    sets: List[BreakdownSet] = field(default_factory=list)

    @property
    def shape_holds(self) -> bool:
        """All bypass-yield variants far below sequence cost, and the
        randomized variant never strictly best (state helps)."""
        for data_set in self.sets:
            totals = {
                name: sim.total_bytes
                for name, sim in data_set.results.items()
            }
            if any(
                totals[name] > data_set.sequence_bytes / 2
                for name in ALGORITHMS
            ):
                return False
            if totals["space-eff-by"] < min(
                totals["rate-profile"], totals["online-by"]
            ):
                return False
        return True


def run_breakdown(
    granularity: str,
    contexts: Optional[Sequence[ExperimentContext]] = None,
    cache_fraction: float = CACHE_FRACTION,
) -> BreakdownResult:
    """Shared driver for Tables 1 and 2."""
    if contexts is None:
        contexts = (build_context("edr"), build_context("dr1"))
    result = BreakdownResult(
        granularity=granularity, cache_fraction=cache_fraction
    )
    workers = parallel_workers()
    for context in contexts:
        capacity = context.capacity_for(cache_fraction)
        results = compare_policies(
            context.prepared,
            context.federation,
            capacity,
            granularity,
            policies=ALGORITHMS,
            record_series=False,
            parallel=workers > 1,
            max_workers=workers or None,
        )
        result.sets.append(
            BreakdownSet(
                flavor=context.flavor,
                num_queries=len(context.prepared),
                sequence_bytes=float(context.prepared.sequence_bytes),
                results=results,
            )
        )
    return result


def render_breakdown(result: BreakdownResult, table_name: str) -> str:
    rows: List[List[object]] = []
    for data_set in result.sets:
        for i, name in enumerate(ALGORITHMS):
            sim = data_set.results[name]
            rows.append(
                [
                    data_set.flavor.upper() if i == 0 else "",
                    data_set.num_queries if i == 0 else "",
                    (
                        f"{data_set.sequence_bytes / 1e6:.2f}"
                        if i == 0
                        else ""
                    ),
                    name,
                    sim.breakdown.bypass_bytes / 1e6,
                    sim.breakdown.load_bytes / 1e6,
                    sim.total_bytes / 1e6,
                ]
            )
    table = format_table(
        [
            "data set",
            "queries",
            "sequence (MB)",
            "algorithm",
            "bypass (MB)",
            "fetch (MB)",
            "total (MB)",
        ],
        rows,
        title=(
            f"{table_name}: cost breakdown for {result.granularity} "
            f"caching (cache = {result.cache_fraction:.0%} of DB)"
        ),
    )
    verdict = (
        "paper shape (all << sequence cost; randomized lags): "
        f"{'HOLDS' if result.shape_holds else 'VIOLATED'}"
    )
    return f"{table}\n{verdict}"


def run(
    contexts: Optional[Sequence[ExperimentContext]] = None,
) -> BreakdownResult:
    return run_breakdown("column", contexts)


def render(result: BreakdownResult) -> str:
    return render_breakdown(result, "Table 1")


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
