"""Competitive analysis utilities: offline bounds and empirical ratios.

Theorem 5.1 bounds OnlineBY at ``(4α + 2)``-competitive against the
offline optimum.  The true capacity-constrained optimum is NP-hard to
compute (:func:`exact_opt` solves small instances), but relaxing the
capacity constraint decomposes the problem per object, where the offline
optimum has a closed form — and the sum of per-object optima is a valid
*lower bound* on OPT (relaxation only helps).  Dividing a policy's
measured cost by that bound yields an empirical estimate of its ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.events import Decision
from repro.errors import CacheError

if TYPE_CHECKING:
    from repro.core.policies.base import CachePolicy
    from repro.federation.federation import Federation
    from repro.workload.trace import PreparedTrace


def offline_single_object_opt(
    yields: Sequence[float], fetch_cost: float
) -> float:
    """Offline optimal cost of serving one object's query stream.

    With no capacity pressure the object is loaded at most once (there
    is never a reason to evict), so the optimum is::

        min( sum(all yields),                    # never load
             min_k  sum(yields[:k]) + f )        # bypass k, then load

    Args:
        yields: Per-query bypass costs against the object, in order.
        fetch_cost: Cost ``f`` of loading the object.
    """
    if fetch_cost < 0:
        raise CacheError("fetch cost must be non-negative")
    for value in yields:
        if value < 0:
            raise CacheError("yields must be non-negative")
    return _single_object_opt(yields, fetch_cost)


def _single_object_opt(yields: Sequence[float], fetch_cost: float) -> float:
    # With hindsight and no capacity pressure, loading later than the
    # first query is always dominated (the prefix of bypassed yields
    # only grows), so the offline optimum is the ski-rental one:
    # load immediately (pay f) or never (pay every yield).
    return min(float(fetch_cost), float(sum(yields)))


@dataclass
class CompetitiveReport:
    """Empirical competitive measurement for one policy run.

    Attributes:
        policy_cost: Measured WAN cost (bypass + loads).
        opt_lower_bound: Sum of per-object offline optima (capacity
            relaxed) — a lower bound on the true offline optimum.
        per_object_bounds: The decomposed bounds.
    """

    policy_cost: float
    opt_lower_bound: float
    per_object_bounds: Dict[str, float] = field(default_factory=dict)

    @property
    def empirical_ratio(self) -> float:
        """Upper estimate of the competitive ratio on this input."""
        if self.opt_lower_bound <= 0:
            return float("inf") if self.policy_cost > 0 else 1.0
        return self.policy_cost / self.opt_lower_bound


def opt_lower_bound(
    prepared_queries: Iterable,
    granularity: str,
    object_sizes: Dict[str, int],
    fetch_costs: Dict[str, float],
) -> CompetitiveReport:
    """Relaxed-offline lower bound for a prepared trace.

    Each query's attributed yield shares form the per-object bypass
    streams; each object is then solved offline in isolation.
    """
    streams: Dict[str, List[float]] = {}
    for query in prepared_queries:
        for object_id, share in query.object_yields(granularity).items():
            streams.setdefault(object_id, []).append(share)
    bounds: Dict[str, float] = {}
    for object_id, stream in streams.items():
        if object_id not in fetch_costs:
            raise CacheError(f"no fetch cost for {object_id!r}")
        bounds[object_id] = _single_object_opt(
            stream, fetch_costs[object_id]
        )
    return CompetitiveReport(
        policy_cost=0.0,
        opt_lower_bound=sum(bounds.values()),
        per_object_bounds=bounds,
    )


def exact_opt(
    queries: Sequence[Mapping[str, float]],
    sizes: Mapping[str, int],
    fetch_costs: Mapping[str, float],
    capacity: int,
) -> Tuple[float, List[Decision]]:
    """The exact offline optimum *with the same cache* (≤ 16 objects).

    Each query maps its objects to their yield shares: a bypass pays
    their sum (as in :func:`opt_lower_bound`), a serve pays the
    ``fetch_costs`` of what it loads.  A dynamic program over the set of
    cached objects; loading only to serve loses nothing, and a superset
    dominates its subsets (evicting is free).  Returns the cost and the
    schedule, one :class:`Decision` per query.
    """
    ids = sorted({object_id for query in queries for object_id in query})
    if len(ids) > 16:
        raise CacheError(f"exact_opt solves at most 16 objects, got {len(ids)}")

    def members(mask: int) -> List[str]:
        return [oid for bit, oid in enumerate(ids) if mask >> bit & 1]

    def size(mask: int) -> int:
        return sum(sizes[object_id] for object_id in members(mask))

    frontier: Dict[int, float] = {0: 0.0}
    steps: List[Dict[int, Tuple[float, int, bool]]] = []
    for query in queries:
        need = sum(1 << ids.index(object_id) for object_id in query)
        room = capacity - size(need)
        step: Dict[int, Tuple[float, int, bool]] = {}  # (cost, came from, served)
        for state, cost in frontier.items():
            moves = [(state, cost + sum(query.values()), False)]
            load = sum(fetch_costs[oid] for oid in members(need & ~state))
            rest = keep = state & ~need
            while room >= 0:  # serve, keeping each subset that fits
                if size(keep) <= room:
                    moves.append((need | keep, cost + load, True))
                if keep == 0:
                    break
                keep = (keep - 1) & rest
            for target, total, served in moves:
                if total < step.get(target, (float("inf"),))[0]:
                    step[target] = (total, state, served)
        frontier = {
            state: cost for state, (cost, _, _) in step.items()
            if not any(o != state and o & state == state and step[o][0] <= cost for o in step)
        }
        steps.append(step)
    best, state = min((cost, state) for state, cost in frontier.items())
    schedule: List[Decision] = []
    for step in reversed(steps):
        _, prev, served = step[state]
        schedule.insert(0, Decision(served, members(state & ~prev), members(prev & ~state)))
        state = prev
    return best, schedule


def measure_competitive_ratio(
    prepared_trace: "PreparedTrace",
    federation: "Federation",
    policy: "CachePolicy",
    granularity: str = "table",
) -> CompetitiveReport:
    """Run ``policy`` over the trace and compare against the bound."""
    from repro.core.pipeline import shared_catalog
    from repro.sim.simulator import Simulator

    catalog = shared_catalog(federation)
    object_ids = set()
    for query in prepared_trace:
        object_ids.update(query.object_yields(granularity))
    sizes = {oid: catalog.size(oid) for oid in object_ids}
    costs = {oid: catalog.fetch_cost(oid) for oid in object_ids}

    report = opt_lower_bound(prepared_trace, granularity, sizes, costs)
    simulator = Simulator(federation, granularity)
    result = simulator.run(prepared_trace, policy, record_series=False)
    report.policy_cost = result.total_bytes
    return report
