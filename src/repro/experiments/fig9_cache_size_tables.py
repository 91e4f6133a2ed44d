"""Figure 9 — total cost vs cache size (10%-100% of DB), table caching.

The paper's two conclusions: (1) Rate-Profile degrades at very small
caches (it evicts objects before their load cost is recovered);
(2) bypass caches need to be ~20-30% of the database to be effective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import (
    ExperimentContext,
    build_context,
    experiment_instrumentation,
    parallel_workers,
)
from repro.sim.reporting import format_table, sweep_chart
from repro.sim.results import SweepResult
from repro.sim import runner as sim_runner

FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
POLICIES = ("rate-profile", "online-by", "space-eff-by", "gds", "static")


@dataclass
class SweepExperimentResult:
    sweep: SweepResult
    sequence_bytes: float

    def total_at(self, policy: str, fraction: float) -> float:
        for point in self.sweep.series(policy):
            if abs(point.cache_fraction - fraction) < 1e-9:
                return point.total_bytes
        raise KeyError(f"no point for {policy} at {fraction}")

    @property
    def shape_holds(self) -> bool:
        """At moderate cache sizes the bypass variants beat GDS clearly,
        and a larger cache never drastically hurts them; Rate-Profile
        does poorly at a tiny cache relative to its own steady state
        (the paper's first conclusion).  Partial sweeps (missing the
        reference fractions or policies) report False."""
        try:
            tiny = self.total_at("rate-profile", 0.1)
            mid = self.total_at("rate-profile", 0.3)
            steady = self.total_at("rate-profile", 0.5)
            gds_mid = self.total_at("gds", 0.3)
            large = self.total_at("rate-profile", 0.8)
        except KeyError:
            return False
        return (
            gds_mid / max(mid, 1.0) >= 3.0
            and large <= mid * 1.5
            and tiny > steady
        )


def run_sweep(
    granularity: str,
    context: Optional[ExperimentContext] = None,
    fractions: Sequence[float] = FRACTIONS,
    policies: Sequence[str] = POLICIES,
) -> SweepExperimentResult:
    """Shared driver for Figures 9 and 10.

    The (fraction × policy) grid fans out over worker processes (see
    :func:`repro.experiments.common.parallel_workers`); results are
    identical to a serial run.
    """
    if context is None:
        context = build_context("edr")
    workers = parallel_workers()
    sweep = sim_runner.run_sweep(
        context.prepared,
        context.federation,
        granularity=granularity,
        fractions=fractions,
        policies=policies,
        parallel=workers > 1,
        max_workers=workers or None,
        instrumentation=experiment_instrumentation(),
    )
    return SweepExperimentResult(
        sweep=sweep,
        sequence_bytes=float(context.prepared.sequence_bytes),
    )


def render_sweep(result: SweepExperimentResult, figure: str) -> str:
    chart = sweep_chart(
        result.sweep,
        title=(
            f"{figure}: algorithm performance for an increasing cache "
            f"size, {result.sweep.granularity} caching (log scale)"
        ),
    )
    headers = ["% cache"] + list(result.sweep.policies())
    fractions = sorted(
        {point.cache_fraction for point in result.sweep.points}
    )
    rows = []
    for fraction in fractions:
        row: list = [f"{fraction:.0%}"]
        for name in result.sweep.policies():
            row.append(result.total_at(name, fraction) / 1e6)
        rows.append(row)
    table = format_table(headers, rows, title="total WAN cost (MB)")
    verdict = (
        "paper shape (bypass-yield ~flat and well below GDS, "
        "rate-profile worse at 10% than at 50%): "
        f"{'HOLDS' if result.shape_holds else 'VIOLATED'}"
    )
    return f"{chart}\n{table}\n{verdict}"


def run(
    context: Optional[ExperimentContext] = None,
) -> SweepExperimentResult:
    return run_sweep("table", context)


def render(result: SweepExperimentResult) -> str:
    return render_sweep(result, "Figure 9")


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
