"""The mediation middleware: query routing, decomposition, evaluation.

The mediator is where the cache sits (it is collocated with the clients,
so mediator<->client traffic is LAN and free).  It offers the primitives
the bypass-yield cache needs:

* :meth:`Mediator.evaluate` — parse/plan/execute a query against the
  *global* federation view, producing the result (whose byte size is the
  query's yield) without charging any WAN traffic.  Used when the query
  is served from cached objects.
* :meth:`Mediator.bypass` — ship the query to the owning server(s),
  charging the WAN for every result byte.  Cross-server joins are
  decomposed into per-server subqueries whose partial results are shipped
  to the mediator and joined there ("hybrid shipping").

:mod:`repro.service` puts a serving front on this middleware: the
asyncio :class:`~repro.service.server.MediatorService` multiplexes many
tenants' query streams onto one shared cache over one federation, with
the per-federation decision lock serializing policy state and admission
control shedding overload to the bypass arm (DESIGN.md §15).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.units import (
    ZERO_BYTES,
    ZERO_COST,
    RawBytes,
    WeightedCost,
    raw_bytes,
)
from repro.errors import BackendUnavailable, FederationError
from repro.federation.federation import Federation
from repro.federation.network import TrafficLedger
from repro.obs.spans import (
    STAGE_BYPASS,
    STAGE_EXECUTE,
    STAGE_LOAD,
    STAGE_PLAN,
    SpanTracer,
)

if TYPE_CHECKING:  # avoids a repro.core <-> repro.federation cycle
    from repro.core.instrumentation import Instrumentation
    from repro.faults.clock import FaultClock
    from repro.faults.transport import ResilientTransport
from repro.sqlengine.ast_nodes import ColumnRef, column_refs
from repro.sqlengine.executor import ResultSet, execute_plan
from repro.sqlengine.planner import JoinEdge, OutputColumn, QueryPlan
from repro.sqlengine.shapes import ShapePlanner


@dataclass
class FederatedResult:
    """Outcome of a bypass execution.

    Attributes:
        result: The final materialized result (yield = ``byte_size``).
        per_server_bytes: WAN bytes each server shipped for this query.
        wan_bytes: Total WAN bytes (sum over servers).
        wan_cost: Link-weighted WAN cost.
    """

    result: ResultSet
    per_server_bytes: Dict[str, int] = field(default_factory=dict)
    wan_bytes: RawBytes = ZERO_BYTES
    wan_cost: WeightedCost = ZERO_COST


class Mediator:
    """Query front-end for one federation.

    Args:
        federation: The servers to mediate for.
        plan_cache_size: Bound on memoized query plans.  Scientific
            workloads rarely repeat exact SQL (Section 6.1), so the
            cache mostly helps the prepare/evaluate double-call per
            query; a bound keeps long-lived mediators from growing
            without limit.
        instrumentation: Optional observability sink
            (:class:`~repro.core.instrumentation.Instrumentation`);
            every WAN-cost-bearing operation (plans, loads, bypasses,
            cache hits) increments its counters.
        transport: Optional resilient transport
            (:class:`~repro.faults.transport.ResilientTransport`).
            When set, every WAN transfer goes through its retry/breaker
            machinery: retry waste lands in the ledger via
            :meth:`TrafficLedger.record_retry`, and transfers that
            exhaust their retries raise
            :class:`~repro.errors.BackendUnavailable`.  Without it the
            network is the paper's always-up model, byte for byte.
        clock: Logical clock the transport reads
            (:class:`~repro.faults.clock.FaultClock`).  Defaults to a
            fresh clock pinned at tick 0; drivers that replay traces
            advance it once per query.
        tracer: Optional span tracer.  Plan-cache lookups, SQL
            execution (with vectorized-vs-row-path scan attribution),
            object loads, and bypass shipments each get a span;
            ``None`` turns tracing off.
    """

    def __init__(
        self,
        federation: Federation,
        plan_cache_size: int = 4096,
        instrumentation: Optional["Instrumentation"] = None,
        transport: Optional["ResilientTransport"] = None,
        clock: Optional["FaultClock"] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if plan_cache_size <= 0:
            raise FederationError("plan_cache_size must be positive")
        self.federation = federation
        self._lookup = federation.schema_lookup()
        self.ledger = TrafficLedger()
        self.instrumentation = instrumentation
        self.transport = transport
        if clock is None and transport is not None:
            from repro.faults.clock import FaultClock as _FaultClock

            clock = _FaultClock()
        self.clock = clock
        self.tracer = tracer
        self._plan_cache: "OrderedDict[str, QueryPlan]" = OrderedDict()
        self._plan_cache_size = plan_cache_size
        self._shapes = ShapePlanner(self._lookup)

    def _count(self, name: str, value: float = 1.0) -> None:
        if self.instrumentation is not None:
            self.instrumentation.count(name, value)

    def _tick(self) -> int:
        return self.clock.tick if self.clock is not None else 0

    def _ship(
        self, server_name: str, num_bytes: int, operation: str, object_id: str = ""
    ) -> float:
        """Push ``num_bytes`` through the transport; returns the cost
        multiplier of the successful attempt.

        Retry waste is charged to the ledger immediately — those bytes
        crossed the WAN whether or not the transfer ultimately lands.
        Raises :class:`BackendUnavailable` when the transfer exhausts
        its retries or the breaker refuses it.
        """
        assert self.transport is not None
        weight = self.federation.network.link(server_name).weight
        outcome = self.transport.send(
            server_name, num_bytes, self._tick(), weight
        )
        if outcome.wasted_bytes:
            self.ledger.record_retry(
                server_name, outcome.wasted_bytes, outcome.wasted_cost
            )
            self._count("mediator.retry_bytes", outcome.wasted_bytes)
        if outcome.retries:
            self._count("mediator.retries", outcome.retries)
        if not outcome.ok:
            raise BackendUnavailable(
                server_name,
                operation=operation,
                object_id=object_id,
                attempts=outcome.attempts,
            )
        return outcome.cost_multiplier

    def plan(self, sql: str) -> QueryPlan:
        """Parse and plan against the global federation schema (cached).

        Two cache levels: an exact-SQL LRU (helps the prepare/evaluate
        double-call per query) over a shape-keyed template cache
        (:class:`~repro.sqlengine.shapes.ShapePlanner`), which makes
        planning sublinear in trace length on template-heavy workloads
        where exact SQL almost never repeats.
        """
        tracer = self.tracer
        span = tracer.start(STAGE_PLAN) if tracer is not None else None
        cached = self._plan_cache.get(sql)
        if cached is None:
            shape_hits_before = self._shapes.shape_hits
            cached = self._shapes.plan(sql)
            self._plan_cache[sql] = cached
            if len(self._plan_cache) > self._plan_cache_size:
                self._plan_cache.popitem(last=False)
            self._count("mediator.plan_misses")
            cache_level = (
                "shape"
                if self._shapes.shape_hits > shape_hits_before
                else "miss"
            )
        else:
            self._plan_cache.move_to_end(sql)
            self._count("mediator.plan_hits")
            cache_level = "exact"
        if tracer is not None and span is not None:
            tracer.finish(span, cache=cache_level)
        return cached

    def evaluate(self, sql: str, plan: Optional[QueryPlan] = None) -> ResultSet:
        """Execute the query on the global view with no WAN accounting.

        This is the data path for cache-served queries: the yield must be
        computed (it is shipped to the client over the LAN) but no WAN
        bytes move.
        """
        if plan is None:
            plan = self.plan(sql)
        tracer = self.tracer
        if tracer is None:
            return execute_plan(plan, self.federation)
        from repro.sqlengine.executor import set_scan_observer

        scans = {"index": 0, "vectorized": 0, "rowpath": 0}

        def observe(table_name: str, path: str) -> None:
            scans[path] += 1

        span = tracer.start(STAGE_EXECUTE)
        previous = set_scan_observer(observe)
        try:
            result = execute_plan(plan, self.federation)
        finally:
            set_scan_observer(previous)
        tracer.finish(
            span,
            yield_bytes=result.byte_size,
            index_scans=scans["index"],
            vectorized_scans=scans["vectorized"],
            rowpath_scans=scans["rowpath"],
        )
        return result

    def servers_for_plan(self, plan: QueryPlan) -> Tuple[str, ...]:
        """Names of the distinct servers a plan's tables live on (a
        fact of the query's shape in this federation)."""
        federation = self.federation
        return plan.facts.fill(
            "servers", federation.hosting_servers, plan, owner=federation
        )

    def bypass(
        self,
        sql: str,
        plan: Optional[QueryPlan] = None,
        result: Optional[ResultSet] = None,
    ) -> FederatedResult:
        """Ship the query past the cache, charging the WAN.

        A single-server query runs entirely at that server; the WAN
        carries exactly the result bytes.  A cross-server query is
        decomposed: each server evaluates its local portion (filters and
        local joins applied — the data-reduction benefit) and ships the
        partial result; the mediator joins the partials.
        """
        if plan is None:
            plan = self.plan(sql)
        tracer = self.tracer
        span = (
            tracer.start(STAGE_BYPASS) if tracer is not None else None
        )
        try:
            outcome = self._bypass_inner(sql, plan, result)
        except BackendUnavailable:
            if tracer is not None and span is not None:
                tracer.finish(span, unavailable=True)
            raise
        if tracer is not None and span is not None:
            tracer.finish(
                span,
                bytes_moved=int(outcome.wan_bytes),
                servers=len(outcome.per_server_bytes),
            )
        return outcome

    def _bypass_inner(
        self,
        sql: str,
        plan: QueryPlan,
        result: Optional[ResultSet],
    ) -> FederatedResult:
        servers = self.servers_for_plan(plan)
        if result is None:
            result = execute_plan(plan, self.federation)

        per_server: Dict[str, int] = {}
        if len(servers) == 1:
            per_server[servers[0]] = result.byte_size
        elif any(entry.join_kind == "left" for entry in plan.scope):
            raise FederationError(
                "cross-server LEFT JOIN decomposition is not supported; "
                "host the preserved and nullable sides on one server"
            )
        else:
            for name in servers:
                per_server[name] = self._subquery_bytes(plan, name)

        multipliers: Dict[str, float] = {}
        if self.transport is not None:
            for name, num_bytes in per_server.items():
                try:
                    multipliers[name] = self._ship(name, num_bytes, "bypass")
                except BackendUnavailable:
                    # Partials already shipped by earlier servers were
                    # discarded: real WAN traffic that bought nothing.
                    for done, factor in multipliers.items():
                        shipped = per_server[done]
                        waste = self.federation.network.cost(done, shipped)
                        self.ledger.record_retry(
                            done, shipped, WeightedCost(waste * factor)
                        )
                        self._count("mediator.retry_bytes", shipped)
                    raise

        wan_bytes = ZERO_BYTES
        wan_cost = ZERO_COST
        for name, num_bytes in per_server.items():
            cost = self.federation.network.cost(name, num_bytes)
            if multipliers.get(name, 1.0) != 1.0:
                cost = WeightedCost(cost * multipliers[name])
            self.ledger.record_bypass(name, num_bytes, cost)
            wan_bytes = RawBytes(wan_bytes + num_bytes)
            wan_cost = WeightedCost(wan_cost + cost)
        self._count("mediator.bypasses")
        self._count("mediator.bypass_bytes", wan_bytes)
        self._count("mediator.bypass_cost", wan_cost)
        return FederatedResult(
            result=result,
            per_server_bytes=per_server,
            wan_bytes=wan_bytes,
            wan_cost=wan_cost,
        )

    def load_object(self, object_id: str) -> Tuple[RawBytes, WeightedCost]:
        """Fetch a whole object into the cache; returns (bytes, cost)."""
        tracer = self.tracer
        server = self.federation.server_for_object(object_id)
        span = None
        if tracer is not None:
            span = tracer.start(
                STAGE_LOAD, object=object_id, server=server.name
            )
        try:
            size = raw_bytes(server.fetch_object(object_id))
            cost = self.federation.network.cost(server.name, size)
            if self.transport is not None:
                multiplier = self._ship(
                    server.name, size, "load", object_id
                )
                if multiplier != 1.0:
                    cost = WeightedCost(cost * multiplier)
        except BackendUnavailable:
            if tracer is not None and span is not None:
                tracer.finish(span, unavailable=True)
            raise
        self.ledger.record_load(server.name, size, cost)
        self._count("mediator.loads")
        self._count("mediator.load_bytes", size)
        self._count("mediator.load_cost", cost)
        if tracer is not None and span is not None:
            tracer.finish(span, bytes_moved=int(size))
        return size, cost

    def load_from_peer(
        self, object_id: str, provider: str
    ) -> Tuple[RawBytes, WeightedCost]:
        """Receive a whole object from sibling proxy ``provider``.

        The fleet counterpart of :meth:`load_object`: the bytes arrive
        over the peer link class (``peer_weight`` per byte) and land in
        the ledger's peer counters instead of the WAN load totals —
        a sibling hit is regional traffic, not backend traffic.
        """
        size = raw_bytes(self.federation.object_size(object_id))
        cost = self.federation.network.peer_cost(size)
        self.ledger.record_peer(provider, size, cost)
        self._count("mediator.peer_loads")
        self._count("mediator.peer_bytes", size)
        self._count("mediator.peer_cost", cost)
        return size, cost

    def serve_from_cache(self, result: ResultSet) -> None:
        """Account a cache-served result (LAN only)."""
        self.ledger.record_cache_hit(result.byte_size)
        self._count("mediator.cache_hits")
        self._count("mediator.lan_bytes", result.byte_size)

    # ------------------------------------------------------------------
    # Cross-server decomposition
    # ------------------------------------------------------------------

    def _subquery_bytes(self, plan: QueryPlan, server_name: str) -> int:
        """Bytes server ``server_name`` ships for its part of ``plan``.

        The server evaluates a subplan over its own tables: local
        predicates and same-server join edges apply, and only the columns
        the mediator needs (outputs, residual predicates, cross-server
        join keys) are projected.
        """
        server = self.federation.server(server_name)
        local_entries = [
            entry
            for entry in plan.scope
            if self.federation.server_for_table(entry.table_name).name
            == server_name
        ]
        local_bindings = {entry.binding.lower() for entry in local_entries}

        local_edges: List[JoinEdge] = []
        cross_edges: List[JoinEdge] = []
        for edge in plan.join_edges:
            left_local = edge.left_binding.lower() in local_bindings
            right_local = edge.right_binding.lower() in local_bindings
            if left_local and right_local:
                local_edges.append(edge)
            elif left_local or right_local:
                cross_edges.append(edge)

        needed = self._needed_columns(
            plan, local_bindings, cross_edges
        )
        outputs: List[OutputColumn] = []
        binding_schema = {
            entry.binding.lower(): entry for entry in local_entries
        }
        for binding, column in sorted(needed):
            entry = binding_schema[binding]
            col = entry.schema.column(column)
            outputs.append(
                OutputColumn(
                    name=f"{entry.binding}_{col.name}",
                    expr=ColumnRef(column=col.name, table=entry.binding),
                    width=col.width,
                    source=(entry.table_name, col.name),
                )
            )
        # A projection-only subplan: aggregation, DISTINCT, ordering and
        # LIMIT happen at the mediator after the join.
        subplan = QueryPlan(
            statement=replace(
                plan.statement,
                group_by=(),
                having=None,
                order_by=(),
                limit=None,
                distinct=False,
            ),
            scope=local_entries,
            local_predicates={
                entry.binding: plan.local_predicates.get(entry.binding, [])
                for entry in local_entries
            },
            join_edges=local_edges,
            residual_predicates=[],
            outputs=outputs,
            has_aggregates=False,
        )
        shipped = execute_plan(subplan, server.catalog).byte_size
        server.record_shipment(shipped)
        return shipped

    def _needed_columns(
        self,
        plan: QueryPlan,
        local_bindings: Set[str],
        cross_edges: List[JoinEdge],
    ) -> Set[Tuple[str, str]]:
        """(binding, column) pairs the mediator needs from these bindings."""
        bindings = {entry.binding.lower(): entry for entry in plan.scope}

        def owner(ref: ColumnRef) -> Optional[str]:
            if ref.table is not None:
                entry = bindings.get(ref.table.lower())
                return entry.binding.lower() if entry else None
            candidates = [
                entry.binding.lower()
                for entry in plan.scope
                if ref.column in entry.schema
            ]
            return candidates[0] if len(candidates) == 1 else None

        needed: Set[Tuple[str, str]] = set()
        exprs = [out.expr for out in plan.outputs]
        exprs.extend(plan.residual_predicates)
        exprs.extend(plan.group_by)
        if plan.statement.having is not None:
            exprs.append(plan.statement.having)
        for item in plan.statement.order_by:
            exprs.append(item.expr)
        for expr in exprs:
            for ref in column_refs(expr):
                binding = owner(ref)
                if binding in local_bindings:
                    needed.add((binding, ref.column.lower()))
        for edge in cross_edges:
            if edge.left_binding.lower() in local_bindings:
                needed.add(
                    (edge.left_binding.lower(), edge.left_column.lower())
                )
            if edge.right_binding.lower() in local_bindings:
                needed.add(
                    (edge.right_binding.lower(), edge.right_column.lower())
                )
        return needed

