"""The bypass-yield proxy: a live cache in front of a federation.

This is the deployable object the paper describes — "we collocate a
caching service with a mediation middleware" (Section 3).  Each query
goes through the full pipeline:

1. plan against the global federation schema;
2. evaluate (the result must be computed whichever path serves it — its
   byte size is the yield);
3. attribute the yield to the referenced cacheable objects;
4. let the policy decide: load objects / serve from cache / bypass;
5. account WAN traffic on the mediator's ledger (loads and bypasses
   cost; cache-served queries ride the LAN).

The offline :class:`~repro.sim.simulator.Simulator` exists for replaying
*prepared* traces cheaply; the proxy is the online path.  Both are thin
drivers over the same :class:`~repro.core.pipeline.DecisionPipeline`, so
they agree exactly on accounting under both cost views (tested).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
)

if TYPE_CHECKING:
    from repro.faults.transport import ResilientTransport
    from repro.obs.httpd import MetricsServer
    from repro.obs.metrics import MetricsRegistry

from repro.core.events import CacheQuery
from repro.core.instrumentation import DecisionEvent, Instrumentation
from repro.core.pipeline import (
    OUTCOME_BYPASSED,
    OUTCOME_SERVED,
    OUTCOME_UNAVAILABLE,
    DecisionPipeline,
)
from repro.core.units import ZERO_BYTES, ZERO_COST, RawBytes, WeightedCost
from repro.core.policies.base import CachePolicy
from repro.errors import BackendUnavailable
from repro.federation.federation import Federation
from repro.federation.mediator import Mediator
from repro.federation.network import TrafficLedger
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
        served_from_cache: True when the query was evaluated locally.
        loads: Objects fetched into the cache for this query.
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
            events and stage timers flow through it.
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
        self.peer_lookup = peer_lookup
        self.mediator = Mediator(
            federation,
            instrumentation=instrumentation,
            transport=transport,
        )
        self.queries_handled = 0
        self._metrics_registry: Optional["MetricsRegistry"] = None
        self._metrics_server: Optional["MetricsServer"] = None
        self._metrics_lock = threading.Lock()
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

    def _stage(self, name: str) -> ContextManager[None]:
        instrumentation = self.pipeline.instrumentation
        if instrumentation is None:
            return nullcontext()
        return instrumentation.stage(name)

    def build_query(self, sql: str) -> CacheQuery:
        """Plan + evaluate + attribute one query into the policy event.

        Exposed for inspection; :meth:`query` is the serving path.
        """
        plan = self.mediator.plan(sql)
        result = self.mediator.evaluate(sql, plan)
        return self._build_event(sql, plan, result)

    def _build_event(
        self, sql: str, plan: QueryPlan, result: ResultSet
    ) -> CacheQuery:
        yield_bytes = result.byte_size
        with self._stage("proxy.attribute"):
            shares = self.pipeline.attribute(plan, yield_bytes)
        return self.pipeline.build_query(
            index=self.queries_handled,
            object_yields=shares,
            yield_bytes=yield_bytes,
            bypass_bytes=yield_bytes,
            sql=sql,
        )

    def query(self, sql: str) -> ProxyResponse:
        """Serve one query, making the bypass/load decision.

        With a transport attached the transfers can fail: failed loads
        roll back, a serve missing its load degrades to a bypass, a
        dark bypass falls back to the cache when everything the query
        touches is resident, and whatever remains surfaces as an
        ``"unavailable"`` response rather than an exception (mirroring
        :meth:`DecisionPipeline.resolve` for the online path).  Without
        one ``BackendUnavailable`` is never raised and the same body
        is the fault-free path.
        """
        with self._stage("proxy.plan"):
            plan = self.mediator.plan(sql)
        with self._stage("proxy.evaluate"):
            result = self.mediator.evaluate(sql, plan)
        event = self._build_event(sql, plan, result)
        with self._stage("proxy.decide"):
            decision = self.policy.process(event)
        index = self.queries_handled
        self.queries_handled += 1

        transport = self.transport
        ledger = self.mediator.ledger
        peer_lookup = self.peer_lookup
        retries_before = 0
        if transport is not None:
            if self.mediator.clock is not None:
                self.mediator.clock.advance_to(index)
            # The backend fetch already carries the fault semantics.
            peer_lookup = None
            retries_before = transport.stats()["retries"]
        retry_bytes_before = ledger.retry_bytes
        retry_cost_before = ledger.retry_cost

        load_bytes = ZERO_BYTES
        load_cost = ZERO_COST
        peer_bytes = ZERO_BYTES
        peer_cost = ZERO_COST
        failed_loads: List[str] = []
        peer_hits = 0
        final_result: Optional[ResultSet] = result
        with self._stage("proxy.transfer"):
            for object_id in decision.loads:
                provider = (
                    peer_lookup(object_id)
                    if peer_lookup is not None
                    else None
                )
                if provider is not None:
                    size, cost = self.mediator.load_from_peer(
                        object_id, provider
                    )
                    peer_bytes = RawBytes(peer_bytes + size)
                    peer_cost = WeightedCost(peer_cost + cost)
                    peer_hits += 1
                    continue
                try:
                    size, cost = self.mediator.load_object(object_id)
                except BackendUnavailable:
                    self.policy.invalidate(object_id)
                    failed_loads.append(object_id)
                else:
                    load_bytes = RawBytes(load_bytes + size)
                    load_cost = WeightedCost(load_cost + cost)

            wants_serve = decision.served_from_cache
            if wants_serve and failed_loads:
                needed = {request.object_id for request in event.objects}
                if needed.intersection(failed_loads):
                    wants_serve = False

            bypass_bytes, bypass_cost = ZERO_BYTES, ZERO_COST
            outcome = OUTCOME_SERVED
            if wants_serve:
                self.mediator.serve_from_cache(result)
            else:
                try:
                    shipped = self.mediator.bypass(sql, plan, result)
                except BackendUnavailable:
                    resident = bool(event.objects) and all(
                        request.object_id in self.policy.store
                        for request in event.objects
                    )
                    if resident:
                        self.mediator.serve_from_cache(result)
                    else:
                        outcome = OUTCOME_UNAVAILABLE
                        final_result = None
                else:
                    bypass_bytes = shipped.wan_bytes
                    bypass_cost = shipped.wan_cost
                    outcome = OUTCOME_BYPASSED

        retry_bytes = RawBytes(ledger.retry_bytes - retry_bytes_before)
        retry_cost = WeightedCost(ledger.retry_cost - retry_cost_before)
        retries = 0
        if transport is not None:
            retries = transport.stats()["retries"] - retries_before

        self.pipeline.emit_decision(
            DecisionEvent(
                index=index,
                source="proxy",
                policy=self.policy.name,
                granularity=self.granularity,
                served_from_cache=decision.served_from_cache,
                loads=tuple(decision.loads),
                evictions=tuple(decision.evictions),
                load_bytes=load_bytes,
                bypass_bytes=bypass_bytes,
                weighted_cost=WeightedCost(
                    load_cost + bypass_cost + retry_cost + peer_cost
                ),
                sql=sql,
                yield_bytes=event.yield_bytes,
                retries=retries,
                retry_bytes=retry_bytes,
                # Fault-free events carry no outcome: pre-fault traces
                # stay byte-identical.
                outcome=outcome if transport is not None else "",
                peer_bytes=peer_bytes,
                failed_loads=len(failed_loads),
                peer_hits=peer_hits,
            )
        )
        return ProxyResponse(
            result=final_result,
            served_from_cache=decision.served_from_cache,
            loads=decision.loads,
            evictions=decision.evictions,
            wan_bytes=load_bytes + bypass_bytes + retry_bytes,
            outcome=outcome,
            retries=retries,
            failed_loads=failed_loads,
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

    def enable_metrics(
        self, registry: Optional["MetricsRegistry"] = None
    ) -> "MetricsRegistry":
        """Attach a :class:`repro.obs.metrics.MetricsProbe` to this proxy.

        Creates an :class:`Instrumentation` sink if the proxy was built
        without one (counters only — event retention stays opt-in), then
        wires a probe that feeds ``registry`` from every decision,
        including a cache-occupancy timeline read from the policy store.
        Idempotent: calling again returns the existing registry.
        """
        from repro.obs.metrics import MetricsProbe, MetricsRegistry

        if self._metrics_registry is not None:
            return self._metrics_registry
        instrumentation = self.pipeline.instrumentation
        if instrumentation is None:
            instrumentation = Instrumentation(max_events=0)
            self.pipeline.instrumentation = instrumentation
            self.mediator.instrumentation = instrumentation
            if self.transport is not None:
                self.transport.set_counter_hook(instrumentation.count)
        self._metrics_registry = registry or MetricsRegistry()
        instrumentation.add_probe(
            MetricsProbe(
                self._metrics_registry,
                occupancy=lambda: self.policy.store.used_bytes,
            )
        )
        return self._metrics_registry

    def serve_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "MetricsServer":
        """Start the stdlib HTTP ``/metrics`` endpoint for this proxy.

        Calls :meth:`enable_metrics` if needed, then binds a
        :class:`repro.obs.httpd.MetricsServer` (daemon thread; ``port=0``
        picks a free port).  Returns the running server — use its
        ``url`` property, and ``close()`` when done.  Idempotent.
        """
        from repro.obs.httpd import MetricsServer

        with self._metrics_lock:
            if self._metrics_server is not None:
                return self._metrics_server
            registry = self.enable_metrics()
            server = MetricsServer(registry, host=host, port=port)
            server.start()
            self._metrics_server = server
        return server

    def close_metrics(self) -> None:
        """Stop the metrics endpoint if one is running.

        Idempotent and thread-safe: concurrent or repeated calls (and a
        call before :meth:`serve_metrics` ever ran) are no-ops.  The
        server reference is claimed under a lock so exactly one caller
        performs the actual shutdown.
        """
        with self._metrics_lock:
            server = self._metrics_server
            self._metrics_server = None
        if server is not None:
            server.close()

    def stats(self) -> Dict[str, object]:
        """Operational snapshot: traffic, hit rate, residency."""
        ledger = self.mediator.ledger
        snapshot: Dict[str, object] = {
            "queries": self.queries_handled,
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
