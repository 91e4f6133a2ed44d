"""Simulation result containers: cost breakdowns and time series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.core.instrumentation import served_hit

if TYPE_CHECKING:
    from repro.core.events import Decision
    from repro.core.instrumentation import DecisionEvent
    from repro.core.pipeline import QueryAccounting, ResolvedQuery


@dataclass
class CostBreakdown:
    """The Tables 1-2 decomposition of WAN traffic.

    Attributes:
        bypass_bytes: Results shipped past the cache ("Bypass Cost").
        load_bytes: Object loads into the cache ("Fetch Cost").
        retry_bytes: Bytes burned by failed transfer attempts and
            discarded partials (0 on fault-free runs).
        peer_bytes: Object bytes supplied by sibling fleet shards over
            peer links (0 outside cooperative fleet runs).  Regional
            traffic — tracked here, excluded from :attr:`total_bytes`,
            which stays the backend-WAN quantity the paper minimizes.
    """

    bypass_bytes: float = 0.0
    load_bytes: float = 0.0
    retry_bytes: float = 0.0
    peer_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.bypass_bytes + self.load_bytes + self.retry_bytes

    def charge(
        self, accounting: "Union[QueryAccounting, DecisionEvent]"
    ) -> None:
        """Accumulate one query's WAN charges into the breakdown.

        The only sanctioned mutation point: drivers must route per-query
        byte totals through here rather than writing the fields ad hoc
        (``repro-lint`` RPR004 enforces this).
        """
        self.bypass_bytes += accounting.bypass_bytes
        self.load_bytes += accounting.load_bytes
        self.retry_bytes += accounting.retry_bytes
        self.peer_bytes += accounting.peer_bytes

    def as_gb(self, bytes_per_gb: float = 1e9) -> Dict[str, float]:
        """The table row, scaled to GB-like units for presentation."""
        return {
            "bypass": self.bypass_bytes / bytes_per_gb,
            "fetch": self.load_bytes / bytes_per_gb,
            "retry": self.retry_bytes / bytes_per_gb,
            "peer": self.peer_bytes / bytes_per_gb,
            "total": self.total_bytes / bytes_per_gb,
        }


@dataclass
class SimulationResult:
    """Outcome of running one policy over one prepared trace.

    Attributes:
        policy_name: Algorithm identifier.
        granularity: ``"table"`` or ``"column"``.
        capacity_bytes: Cache size used.
        queries: Number of queries simulated.
        breakdown: Bypass/fetch/total WAN bytes.
        weighted_cost: Link-weighted WAN cost (equals total bytes on
            uniform networks).
        cumulative_bytes: Cumulative WAN bytes after each recorded query
            — the Figures 7-8 series.
        series_stride: Query distance between consecutive points of
            ``cumulative_bytes`` (1 when every query is recorded; > 1
            under sampled recording).
        served_queries: Queries served from cache.
        yield_bytes: Result bytes of every query, whichever path
            served it.
        served_yield_bytes: The share of ``yield_bytes`` produced by
            queries served from cache.
        loads: Number of object loads.
        evictions: Number of evictions.
        retries: Transfer attempts beyond the first across the whole
            run (0 on fault-free runs).
        failed_loads: Loads that exhausted their retries and were
            rolled back out of the cache.
        partial_queries: Queries answered with partial results because
            some backends were dark.
        unavailable_queries: Queries that could not be answered at all
            (every path dark, nothing resident).
        peer_hits: Object loads satisfied by a sibling fleet shard over
            a peer link instead of the backend (0 outside cooperative
            fleet runs); the bytes live in ``breakdown.peer_bytes``.
        sequence_bytes: The no-cache cost of the same trace (context for
            ratios).
        worker_pid: Process id that produced this result when it came
            from a parallel runner (None for in-process runs).
        telemetry: The worker's
            :meth:`~repro.core.instrumentation.Instrumentation.snapshot`
            when the run executed in a parallel worker (None for
            in-process runs, whose events flow into the caller's sink
            directly).  Parents merge these in deterministic task order
            via ``Instrumentation.merge_snapshot``.
    """

    policy_name: str
    granularity: str
    capacity_bytes: int
    queries: int = 0
    breakdown: CostBreakdown = field(default_factory=CostBreakdown)
    weighted_cost: float = 0.0
    cumulative_bytes: List[float] = field(default_factory=list)
    series_stride: int = 1
    served_queries: int = 0
    yield_bytes: int = 0
    served_yield_bytes: int = 0
    loads: int = 0
    evictions: int = 0
    retries: int = 0
    failed_loads: int = 0
    partial_queries: int = 0
    unavailable_queries: int = 0
    peer_hits: int = 0
    sequence_bytes: float = 0.0
    worker_pid: Optional[int] = None
    telemetry: Optional[Dict[str, object]] = None

    @property
    def total_bytes(self) -> float:
        return self.breakdown.total_bytes

    @property
    def hit_rate(self) -> float:
        if self.queries == 0:
            return 0.0
        return self.served_queries / self.queries

    @property
    def byte_yield_hit_rate(self) -> float:
        """Realized yield-weighted hit rate: what fraction of result
        bytes was produced without touching the WAN (the run-level
        analogue of the paper's BYHR objective)."""
        if self.yield_bytes == 0:
            return 0.0
        return self.served_yield_bytes / self.yield_bytes

    @property
    def availability(self) -> float:
        """Fraction of queries that got an answer (full or partial)."""
        if self.queries == 0:
            return 1.0
        return 1.0 - self.unavailable_queries / self.queries

    @property
    def savings_factor(self) -> float:
        """How many times cheaper than running without a cache."""
        if self.total_bytes == 0:
            return float("inf")
        return self.sequence_bytes / self.total_bytes

    def charge(
        self,
        accounting: "Union[QueryAccounting, DecisionEvent]",
        decision: "Union[Decision, DecisionEvent]",
        peer_hits: int = 0,
        outcome: str = "",
        retries: int = 0,
        failed_loads: int = 0,
        yield_bytes: int = 0,
    ) -> None:
        """Accumulate one query into the result.

        Byte totals land in the breakdown, the weighted cost and the
        load/eviction/hit counters on the result itself — keeping every
        per-query write inside the accounting classes (RPR004).
        ``peer_hits`` counts this query's loads that a sibling fleet
        shard supplied (cooperative replays only), ``yield_bytes`` is
        the query's result size.  Hit/availability
        counters follow the query's actual ``outcome`` when one is set
        — a serve degraded to "unavailable" by a dark backend is not a
        hit, whatever the policy intended — and the decision otherwise.
        """
        self.breakdown.charge(accounting)
        self.weighted_cost += accounting.weighted_cost
        self.loads += len(decision.loads)
        self.evictions += len(decision.evictions)
        if peer_hits:
            self.peer_hits += peer_hits
        if retries or failed_loads:
            self.retries += retries
            self.failed_loads += failed_loads
            self.loads -= failed_loads
        self.yield_bytes += yield_bytes
        if served_hit(decision.served_from_cache, outcome):
            self.served_queries += 1
            self.served_yield_bytes += yield_bytes
        elif outcome == "partial":
            self.partial_queries += 1
        elif outcome == "unavailable":
            self.unavailable_queries += 1

    def charge_resolved(self, resolved: "ResolvedQuery") -> None:
        """:meth:`charge` one :class:`ResolvedQuery` (adapter kept for
        the frozen perf benchmark, its only caller)."""
        self.charge(
            resolved.accounting,
            resolved.decision,
            outcome=resolved.outcome,
            retries=resolved.retries,
            failed_loads=len(resolved.failed_loads),
        )

    def summary(self) -> Dict[str, object]:
        return {
            "policy": self.policy_name,
            "granularity": self.granularity,
            "capacity_bytes": self.capacity_bytes,
            "queries": self.queries,
            "bypass_bytes": self.breakdown.bypass_bytes,
            "fetch_bytes": self.breakdown.load_bytes,
            "total_bytes": self.total_bytes,
            "hit_rate": round(self.hit_rate, 4),
            "loads": self.loads,
            "evictions": self.evictions,
            "retries": self.retries,
            "retry_bytes": self.breakdown.retry_bytes,
            "failed_loads": self.failed_loads,
            "peer_hits": self.peer_hits,
            "peer_bytes": self.breakdown.peer_bytes,
            "availability": round(self.availability, 4),
            "savings_factor": (
                round(self.savings_factor, 2)
                if self.total_bytes
                else float("inf")
            ),
        }


@dataclass
class SweepPoint:
    """One (cache size, policy) cell of a Figures 9-10 sweep."""

    policy_name: str
    cache_fraction: float
    capacity_bytes: int
    total_bytes: float


@dataclass
class SweepResult:
    """A full cache-size sweep across policies."""

    granularity: str
    database_bytes: int
    points: List[SweepPoint] = field(default_factory=list)

    def series(self, policy_name: str) -> List[SweepPoint]:
        return [
            point
            for point in self.points
            if point.policy_name == policy_name
        ]

    def policies(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            if point.policy_name not in names:
                names.append(point.policy_name)
        return names
