"""The bypass-yield proxy: a live cache in front of a federation.

This is the deployable object the paper describes — "we collocate a
caching service with a mediation middleware" (Section 3).  Each query
is planned against the global federation schema, evaluated (the result
must be computed whichever path serves it — its byte size is the
yield), attributed to the cacheable objects it references, and handed
to :meth:`~repro.core.pipeline.DecisionPipeline.step` — the same step
every offline replay takes.  The policy decides there, once, and the
step settles the decision through :class:`MediatedWan`: loads, bypasses
and cache serves really run through the proxy's mediator, which keeps
the network-citizenship ledger (loads and bypasses cost WAN bytes;
cache-served queries ride the LAN).

The offline :class:`~repro.sim.simulator.Simulator` replays *prepared*
traces cheaply by pricing the same settle from the catalog; the proxy
is the online path.  Both run on one
:class:`~repro.core.pipeline.DecisionPipeline`, so they agree exactly,
event for event, under both cost views and under faults (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:
    from repro.faults.transport import ResilientTransport

from repro.core.instrumentation import Instrumentation, served_hit
from repro.core.pipeline import (
    OUTCOME_BYPASSED,
    OUTCOME_SERVED,
    OUTCOME_UNAVAILABLE,
    CompiledQuery,
    DecisionPipeline,
    WanSource,
)
from repro.core.units import RawBytes, WeightedCost
from repro.core.policies.base import CachePolicy
from repro.errors import BackendUnavailable
from repro.federation.federation import Federation
from repro.federation.mediator import Mediator
from repro.federation.network import TrafficLedger
from repro.sim.results import SimulationResult
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.planner import QueryPlan


@dataclass
class ProxyResponse:
    """What the proxy returns per query.

    Attributes:
        result: The materialized result (identical whichever path
            produced it).  ``None`` only when ``outcome`` is
            ``"unavailable"`` — every backend the query needed stayed
            dark through the retries and nothing was resident.
        served_from_cache: True when the query was evaluated locally —
            what actually happened
            (:func:`~repro.core.instrumentation.served_hit`), not what
            the policy intended.
        loads: Objects fetched into the cache for this query (failed
            loads excluded).
        evictions: Objects evicted to make room.
        wan_bytes: WAN bytes this query added (loads + bypass + retry
            waste).
        outcome: ``"served"``, ``"bypassed"``, or ``"unavailable"`` —
            what the client actually got once faults had their say.
        retries: Transfer attempts beyond the first this query needed.
        failed_loads: Object ids whose loads exhausted their retries
            and were rolled back.
    """

    result: Optional[ResultSet]
    served_from_cache: bool
    loads: List[str]
    evictions: List[str]
    wan_bytes: int
    outcome: str = OUTCOME_SERVED
    retries: int = 0
    failed_loads: List[str] = field(default_factory=list)


class MediatedWan(WanSource):
    """The mediator-executed :class:`~repro.core.pipeline.WanSource`.

    Loads (from ``peer_lookup``'s sibling when it names one), bypasses
    and cache serves run through the proxy's mediator, a dark transfer
    surfacing as ``BackendUnavailable``; retries and waste are the
    transport's and the ledger's deltas.  After a step it holds what the
    client got — ``outcome``, ``retries`` and ``failed_loads``.
    """

    def __init__(
        self,
        mediator: Mediator,
        peer_lookup: Optional[Callable[[str], Optional[str]]],
    ) -> None:
        self.mediator = mediator
        self.peer_lookup = peer_lookup
        self.faulted = mediator.transport is not None

    def prepare(self, sql: str, plan: QueryPlan, result: ResultSet) -> None:
        """Take the next evaluated query; the policy decides next."""
        self.sql, self.plan, self.result = sql, plan, result

    def _waste_so_far(self) -> Tuple[int, RawBytes, WeightedCost]:
        transport, ledger = self.mediator.transport, self.mediator.ledger
        retries = 0 if transport is None else transport.stats()["retries"]
        return retries, ledger.retry_bytes, ledger.retry_cost

    def begin(self, event: CompiledQuery, index: int) -> None:
        if self.mediator.clock is not None:
            self.mediator.clock.advance_to(index)
        self._before = self._waste_so_far()
        self.outcome = OUTCOME_UNAVAILABLE
        self.failed_loads: List[str] = []

    def load(
        self, object_id: str
    ) -> Optional[Tuple[RawBytes, WeightedCost, bool]]:
        if self.peer_lookup is not None:
            provider = self.peer_lookup(object_id)
            if provider is not None:
                size, cost = self.mediator.load_from_peer(object_id, provider)
                return size, cost, True
        try:
            size, cost = self.mediator.load_object(object_id)
        except BackendUnavailable:
            self.failed_loads.append(object_id)
            return None
        return size, cost, False

    def serve(self) -> None:
        self.mediator.serve_from_cache(self.result)
        self.outcome = OUTCOME_SERVED

    def bypass(
        self, partial_results: bool
    ) -> Optional[Tuple[RawBytes, WeightedCost, str]]:
        """A decomposed query ships every server's partial or none."""
        try:
            shipped = self.mediator.bypass(self.sql, self.plan, self.result)
        except BackendUnavailable:
            return None
        self.outcome = OUTCOME_BYPASSED
        return shipped.wan_bytes, shipped.wan_cost, OUTCOME_BYPASSED

    def waste(self) -> Tuple[int, RawBytes, WeightedCost]:
        retries, retry_bytes, retry_cost = self._waste_so_far()
        before = self._before
        self.retries = retries - before[0]
        return (
            self.retries,
            RawBytes(retry_bytes - before[1]),
            WeightedCost(retry_cost - before[2]),
        )


class BypassYieldProxy:
    """A policy-driven caching front-end for one federation.

    Args:
        federation: The backend servers.
        policy: Any :class:`~repro.core.policies.base.CachePolicy`.
        granularity: ``"table"`` or ``"column"`` cache objects.
        policy_sees_weights: When True (default) the policy receives
            link-weighted fetch costs and cost-unit yields (the BYHR
            view); when False it sees raw byte sizes (the BYU
            simplification).  Mirrors the simulator flag — WAN charges
            on the ledger are always weighted.
        instrumentation: Optional observability sink; per-query decision
            events and counters flow through it.
        transport: Optional resilient transport
            (:class:`~repro.faults.transport.ResilientTransport`).
            When set, every WAN transfer retries with backoff behind
            per-server circuit breakers, retry waste is charged to the
            ledger, and queries whose backends stay dark degrade:
            serve-from-cache when everything needed is resident,
            ``"unavailable"`` otherwise.  The proxy advances one
            logical tick per query.
        peer_lookup: Optional fleet hook mapping an object id to the
            name of a sibling proxy holding it (or None).  When the
            hook names a provider, that load arrives over the peer
            link class via
            :meth:`~repro.federation.mediator.Mediator.load_from_peer`
            instead of paying the backend WAN fetch — how a proxy
            participates in a cooperative shard fleet.  Consulted on
            the fault-free path only; under a transport the backend
            fetch already carries the fault semantics.

    The proxy owns a :class:`~repro.federation.mediator.Mediator`; its
    ``ledger`` carries the network-citizenship accounting.
    """

    def __init__(
        self,
        federation: Federation,
        policy: CachePolicy,
        granularity: str = "table",
        policy_sees_weights: bool = True,
        instrumentation: Optional[Instrumentation] = None,
        transport: Optional["ResilientTransport"] = None,
        peer_lookup: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        self.pipeline = DecisionPipeline(
            federation,
            granularity,
            policy_sees_weights,
            instrumentation=instrumentation,
        )
        self.federation = federation
        self.policy = policy
        self.granularity = granularity
        self.transport = transport
        self.mediator = Mediator(
            federation,
            instrumentation=instrumentation,
            transport=transport,
        )
        # Under a transport the backend fetch carries the fault
        # semantics, so siblings are not consulted.
        self._wan = MediatedWan(
            self.mediator, peer_lookup if transport is None else None
        )
        #: Every query charged once by the step, as in an offline run.
        self.totals = SimulationResult(
            policy_name=policy.name,
            granularity=granularity,
            capacity_bytes=policy.capacity_bytes,
        )
        if transport is not None and instrumentation is not None:
            transport.set_counter_hook(instrumentation.count)

    @property
    def policy_sees_weights(self) -> bool:
        return self.pipeline.policy_sees_weights

    @property
    def instrumentation(self) -> Optional[Instrumentation]:
        return self.pipeline.instrumentation

    @property
    def ledger(self) -> TrafficLedger:
        """The WAN traffic ledger (see Figure 1's flows)."""
        return self.mediator.ledger

    def query(self, sql: str) -> ProxyResponse:
        """Serve one query: plan, evaluate, attribute, then one step.

        The step decides and settles the query through the proxy's
        :class:`MediatedWan`.  Behind a transport, failed loads roll
        back, a serve missing its load degrades to a bypass, a dark
        bypass falls back to the cache when everything the query touches
        is resident, and whatever remains surfaces as an
        ``"unavailable"`` response rather than an exception.
        """
        plan = self.mediator.plan(sql)
        result = self.mediator.evaluate(sql, plan)
        yield_bytes = result.byte_size
        shares = self.pipeline.attribute(plan, yield_bytes)
        index = self.totals.queries
        self.totals.queries += 1
        event = CompiledQuery(
            self.pipeline.build_query(
                index, shares, yield_bytes, yield_bytes, sql
            ),
            yield_bytes,
            (),
        )
        wan = self._wan
        wan.prepare(sql, plan, result)
        decision, accounting = self.pipeline.step(
            event, self.policy, self.totals, index, wan, source="proxy"
        )
        failed = wan.failed_loads
        return ProxyResponse(
            result=None if wan.outcome == OUTCOME_UNAVAILABLE else result,
            served_from_cache=served_hit(
                decision.served_from_cache, wan.outcome
            ),
            loads=[load for load in decision.loads if load not in failed],
            evictions=decision.evictions,
            wan_bytes=accounting.wan_bytes,
            outcome=wan.outcome,
            retries=wan.retries,
            failed_loads=failed,
        )

    def invalidate(self, object_ids: Iterable[str]) -> List[str]:
        """Handle a server metadata-change notification (Section 6).

        Returns the object ids that were resident and got dropped.
        """
        dropped = [
            object_id
            for object_id in object_ids
            if self.policy.invalidate(object_id)
        ]
        return dropped

    def stats(self) -> Dict[str, object]:
        """Operational snapshot: traffic, hit rate, residency."""
        ledger = self.mediator.ledger
        snapshot: Dict[str, object] = {
            "queries": self.totals.queries,
            "hit_rate": round(self.policy.hit_rate, 4),
            "wan_bytes": ledger.wan_bytes,
            "bypass_bytes": ledger.bypass_bytes,
            "load_bytes": ledger.load_bytes,
            "retry_bytes": ledger.retry_bytes,
            "peer_bytes": ledger.peer_bytes,
            "lan_bytes": ledger.cache_bytes,
            "resident_objects": len(self.policy.store),
            "cache_used_bytes": self.policy.store.used_bytes,
            "cache_capacity_bytes": self.policy.capacity_bytes,
        }
        if self.transport is not None:
            snapshot["transport"] = self.transport.stats()
        return snapshot
