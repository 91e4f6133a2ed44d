"""Estimator fidelity: what do estimated yields cost the cache?

The bypass decision needs only result *sizes*; a production mediator
estimates them from catalog statistics instead of executing queries.
This harness quantifies what that substitution changes:

* :func:`yield_errors` — per-template relative error of estimated vs
  exact yields (the estimator's accuracy profile);
* :func:`decision_flip_rate` — replay the exact and estimated traces
  through twin policies in lockstep and count the queries where the
  *decision* (serve from cache vs bypass) differs.  Estimation error
  only matters where it crosses a decision boundary; this is the
  end-to-end metric the scale experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from repro.core.pipeline import DecisionPipeline
from repro.core.policies.base import CachePolicy
from repro.errors import CacheError
from repro.federation.federation import Federation
from repro.sim.results import SimulationResult
from repro.workload.trace import PreparedTrace


@dataclass(frozen=True)
class TemplateError:
    """Estimated-vs-exact yield accuracy for one query template."""

    template: str
    queries: int
    mean_relative_error: float
    max_relative_error: float


@dataclass
class FidelityReport:
    """Decision-level agreement between exact and estimated yields.

    Attributes:
        queries: Queries compared.
        flips: Queries whose serve/bypass decision differed.
        flip_rate: ``flips / queries`` (0.0 on empty traces).
        exact_total_bytes: WAN total of the exact replay.
        estimated_total_bytes: WAN total of the estimated replay
            **re-priced at exact bypass bytes** — the decisions come
            from estimated yields, but the traffic a decision actually
            generates is what the real result sizes would have cost.
        template_errors: Per-template yield accuracy, sorted by name.
    """

    queries: int = 0
    flips: int = 0
    exact_total_bytes: float = 0.0
    estimated_total_bytes: float = 0.0
    template_errors: List[TemplateError] = field(default_factory=list)

    @property
    def flip_rate(self) -> float:
        if self.queries == 0:
            return 0.0
        return self.flips / self.queries

    @property
    def wan_penalty(self) -> float:
        """Estimated-decision WAN total relative to exact (1.0 = parity)."""
        if self.exact_total_bytes == 0:
            return 1.0
        return self.estimated_total_bytes / self.exact_total_bytes


def yield_errors(
    exact: PreparedTrace, estimated: PreparedTrace
) -> List[TemplateError]:
    """Per-template relative error of estimated yields.

    Relative error for one query is ``|est - exact| / max(exact, 1)``
    (the floor dodges division by zero on empty results).
    """
    _check_aligned(exact, estimated)
    sums: Dict[str, Tuple[int, float, float]] = {}
    for have, guessed in zip(exact.queries, estimated.queries):
        error = abs(guessed.yield_bytes - have.yield_bytes) / max(
            have.yield_bytes, 1
        )
        count, total, worst = sums.get(have.template, (0, 0.0, 0.0))
        sums[have.template] = (  # repro-lint: allow[RPR007] keyed by template, bounded by template count
            count + 1, total + error, max(worst, error)
        )
    return [
        TemplateError(
            template=template,
            queries=count,
            mean_relative_error=total / count,
            max_relative_error=worst,
        )
        for template, (count, total, worst) in sorted(sums.items())
    ]


def decision_flip_rate(
    federation: Federation,
    exact: PreparedTrace,
    estimated: PreparedTrace,
    policy_factory: Callable[[], CachePolicy],
    granularity: str = "table",
    policy_sees_weights: bool = True,
) -> FidelityReport:
    """Lockstep replay: exact vs estimated yields through twin policies.

    Both replicas see the same query sequence; one sees exact yields,
    the other estimated ones.  Each policy evolves its own cache state,
    so flips compound realistically — an early mis-load shifts every
    later decision it shadows, exactly as it would in production.  WAN
    charges on *both* sides are priced at the exact bypass bytes, so
    the totals isolate the decision quality from the estimation error
    itself.
    """
    _check_aligned(exact, estimated)
    pipeline = DecisionPipeline(
        federation, granularity, policy_sees_weights
    )
    exact_policy = policy_factory()
    estimated_policy = policy_factory()
    exact_result, estimated_result = (
        SimulationResult(
            policy_name=policy.name,
            granularity=granularity,
            capacity_bytes=policy.capacity_bytes,
        )
        for policy in (exact_policy, estimated_policy)
    )
    report = FidelityReport(
        template_errors=yield_errors(exact, estimated)
    )
    for index, (have, guessed) in enumerate(
        zip(exact.queries, estimated.queries)
    ):
        event = pipeline.compile_query(have, index)
        exact_decision, _ = pipeline.step(
            event, exact_policy, exact_result, index
        )
        # Both sides pay real-world prices: only the view the policy
        # decides on is estimated, the event keeps the exact bytes.
        estimated_decision, _ = pipeline.step(
            replace(
                event, query=pipeline.query_from_prepared(guessed, index)
            ),
            estimated_policy,
            estimated_result,
            index,
        )
        if (
            exact_decision.served_from_cache
            != estimated_decision.served_from_cache
        ):
            report.flips += 1
        report.queries += 1
    report.exact_total_bytes = exact_result.total_bytes
    report.estimated_total_bytes = estimated_result.total_bytes
    return report


def _check_aligned(
    exact: PreparedTrace, estimated: PreparedTrace
) -> None:
    if len(exact) != len(estimated):
        raise CacheError(
            f"trace length mismatch: exact has {len(exact)} queries, "
            f"estimated has {len(estimated)}"
        )
    for have, guessed in zip(exact.queries, estimated.queries):
        if have.sql != guessed.sql:
            raise CacheError(
                f"query {have.index} differs between traces; fidelity "
                "comparison needs the same workload on both sides"
            )
