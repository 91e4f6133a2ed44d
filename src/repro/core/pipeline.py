"""The shared offline/online decision pipeline.

Every driver — the offline :class:`~repro.sim.simulator.Simulator`,
the cooperative fleet, the serving
:class:`~repro.service.session.DecisionGate` and the online
:class:`~repro.core.proxy.BypassYieldProxy` — must present *exactly*
the same view of a query to the cache policy and charge *exactly* the
same WAN costs for its decision; the paper's "the simulator and the
proxy agree" claim (and the service's golden-equivalence guarantee) is
only true if all paths share one implementation.  This module is that
implementation:

* :class:`ObjectCatalog` — memoized object metadata (sizes, fetch
  costs, owning servers), shared per federation via
  :func:`shared_catalog`;
* :class:`DecisionPipeline` — query → :class:`~repro.core.events.CacheQuery`
  construction (yield attribution plus the BYHR/BYU
  ``policy_sees_weights`` cost views), WAN-cost accounting, and
  :meth:`DecisionPipeline.step`, the one per-query sequence (decide →
  settle → charge → emit) that the replays, the service and the live
  proxy all call — they differ only in where events and bytes come from;
* :class:`WanSource` — where a query whose transfers can fail gets its
  bytes: :class:`PricedWan` prices catalog sizes through a resilient
  transport, the proxy's ``MediatedWan`` executes through its mediator;
* :class:`QueryAccounting` — the per-query cost record both drivers
  produce;
* :class:`CompiledTrace` — a prepared trace fully lowered to the
  policy-facing event stream under one (granularity, cost-view),
  memoized per federation and trace so sweeps build each query stream
  once instead of once per (policy × capacity) cell.

The BYHR view (``policy_sees_weights=True``) expresses the load price
*and* the per-query savings in link-weighted cost units, so an object
behind an expensive link is more valuable to cache (eq. 1's ``f``
factor).  Mixing weighted costs with raw-byte yields inverts that
preference — the exact bug DESIGN.md §6 documents; keeping the view
logic in one place makes it unrepeatable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.events import CacheQuery, Decision, ObjectRequest
from repro.core.instrumentation import DecisionEvent, Instrumentation
from repro.core.policies.static_select import accumulate_object_yields
from repro.core.units import (
    UNIT_WEIGHT,
    ZERO_BYTES,
    ZERO_COST,
    RawBytes,
    WeightedCost,
    per_byte_weight,
    raw_bytes,
    weigh,
)
from repro.core.yield_model import (
    attribute_yield_columns,
    attribute_yield_tables,
)
from repro.errors import CacheError
from repro.federation.federation import Federation
from repro.obs.spans import (
    STAGE_ACCOUNT,
    STAGE_BYPASS,
    STAGE_DECIDE,
    STAGE_LOAD,
    STAGE_QUERY,
    SpanTracer,
)
from repro.sqlengine.planner import QueryPlan
from repro.workload.trace import PreparedQuery, PreparedTrace

if TYPE_CHECKING:  # typing-only: keeps repro.core import-light
    from repro.core.policies.base import CachePolicy
    from repro.faults.transport import ResilientTransport, TransportOutcome
    from repro.sim.results import SimulationResult

GRANULARITIES = ("table", "column")

#: How a query was ultimately resolved under faults.
OUTCOME_SERVED = "served"
OUTCOME_BYPASSED = "bypassed"
OUTCOME_PARTIAL = "partial"
OUTCOME_UNAVAILABLE = "unavailable"


class ObjectCatalog:
    """Memoized object metadata (sizes, fetch costs, owning servers)."""

    def __init__(self, federation: Federation) -> None:
        self._federation = federation
        self._sizes: Dict[str, RawBytes] = {}
        self._costs: Dict[str, WeightedCost] = {}
        self._servers: Dict[str, str] = {}

    def size(self, object_id: str) -> RawBytes:
        cached = self._sizes.get(object_id)
        if cached is None:
            cached = raw_bytes(self._federation.object_size(object_id))
            self._sizes[object_id] = cached
        return cached

    def fetch_cost(self, object_id: str) -> WeightedCost:
        cached = self._costs.get(object_id)
        if cached is None:
            cached = WeightedCost(self._federation.fetch_cost(object_id))
            self._costs[object_id] = cached
        return cached

    def server(self, object_id: str) -> str:
        cached = self._servers.get(object_id)
        if cached is None:
            cached = self._federation.server_for_object(object_id).name
            self._servers[object_id] = cached
        return cached


#: One catalog per live federation: simulators, runners, and proxies over
#: the same federation share memoized metadata instead of each rebuilding
#: it (sizes never change mid-run — SDSS releases are immutable).
_SHARED_CATALOGS: "weakref.WeakKeyDictionary[Federation, ObjectCatalog]" = (
    weakref.WeakKeyDictionary()
)


def shared_catalog(federation: Federation) -> ObjectCatalog:
    """The federation's shared :class:`ObjectCatalog` (created lazily)."""
    catalog = _SHARED_CATALOGS.get(federation)
    if catalog is None:
        catalog = ObjectCatalog(federation)
        _SHARED_CATALOGS[federation] = catalog
    return catalog


@dataclass(frozen=True)
class CompiledQuery:
    """One trace event lowered to its policy-facing form.

    Carries the :class:`~repro.core.events.CacheQuery` (already under
    the compiling pipeline's granularity and cost view) together with
    the raw accounting inputs the replay loop needs per query and the
    tenant the query is attributed to ("" when untagged).
    """

    query: CacheQuery
    bypass_bytes: int
    servers: Tuple[str, ...]
    tenant: str = ""


@dataclass(frozen=True)
class CompiledTrace:
    """A prepared trace fully lowered to policy-facing events.

    Immutable and pickle-cheap: sweeps compile once in the parent and
    ship the compiled stream to every worker instead of re-attributing
    yields per (policy × capacity) cell.  ``object_totals`` carries the
    *raw-byte* per-object yield sums (what
    :func:`~repro.core.policies.static_select.accumulate_object_yields`
    returns) so the static policy's offline selection works from a
    compiled trace even though the event stream itself is expressed in
    the compiled cost view.
    """

    name: str
    granularity: str
    policy_sees_weights: bool
    sequence_bytes: int
    events: Tuple[CompiledQuery, ...]
    object_totals: Tuple[Tuple[str, float], ...]

    def __len__(self) -> int:
        return len(self.events)


#: Compiled traces memoized per federation.  A trace carrying a content
#: ``fingerprint`` keys by it — two regenerated/reloaded traces with the
#: same queries share one compiled stream, and a *different* trace can
#: never collide the way recycled ``id()`` values can.  Fingerprint-less
#: traces fall back to identity keys guarded with a weakref so a recycled
#: id can never resurrect a dead trace's stream.
_TraceMemo = Dict[
    str,
    Tuple[
        Optional["weakref.ref[PreparedTrace]"],
        Dict[Tuple[str, bool], CompiledTrace],
    ],
]
_COMPILED_TRACES: "weakref.WeakKeyDictionary[Federation, _TraceMemo]" = (
    weakref.WeakKeyDictionary()
)


def _compiled_memo(
    federation: Federation, trace: PreparedTrace
) -> Dict[Tuple[str, bool], CompiledTrace]:
    """The (granularity, cost-view) → compiled memo for one trace."""
    per_fed = _COMPILED_TRACES.get(federation)
    if per_fed is None:
        per_fed = {}
        _COMPILED_TRACES[federation] = per_fed
    if trace.fingerprint is not None:
        fp_key = f"fp:{trace.fingerprint}"
        fp_entry = per_fed.get(fp_key)
        if fp_entry is not None:
            return fp_entry[1]
        fp_views: Dict[Tuple[str, bool], CompiledTrace] = {}
        per_fed[fp_key] = (None, fp_views)
        return fp_views
    ident = f"id:{id(trace)}"
    entry = per_fed.get(ident)
    if entry is not None and entry[0] is not None and entry[0]() is trace:
        return entry[1]
    ref = weakref.ref(
        trace, lambda _, memo=per_fed, key=ident: memo.pop(key, None)
    )
    views: Dict[Tuple[str, bool], CompiledTrace] = {}
    per_fed[ident] = (ref, views)
    return views


@dataclass(frozen=True)
class QueryAccounting:
    """WAN charges one query generated under one policy decision.

    Attributes:
        load_bytes: Whole-object bytes fetched into the cache.
        load_cost: Link-weighted cost of those loads.
        bypass_bytes: Result bytes shipped past the cache (0 on hits).
        bypass_cost: Link-weighted cost of the bypass (0 on hits).
        retry_bytes: WAN bytes burned by failed transfer attempts and
            discarded partials (0 on fault-free runs).
        retry_cost: Link-weighted cost of that waste, brownout
            inflation included.
        peer_bytes: Object bytes received from sibling proxies instead
            of the backend (0 outside cooperative fleet runs).  Peer
            traffic rides the regional interconnect, so it is excluded
            from :attr:`wan_bytes` but priced into
            :attr:`weighted_cost` at the peer link weight.
        peer_cost: Peer-weighted cost of those sibling transfers.
    """

    load_bytes: RawBytes
    load_cost: WeightedCost
    bypass_bytes: RawBytes
    bypass_cost: WeightedCost
    retry_bytes: RawBytes = ZERO_BYTES
    retry_cost: WeightedCost = ZERO_COST
    peer_bytes: RawBytes = ZERO_BYTES
    peer_cost: WeightedCost = ZERO_COST

    @property
    def wan_bytes(self) -> RawBytes:
        return RawBytes(
            self.load_bytes + self.bypass_bytes + self.retry_bytes
        )

    @property
    def weighted_cost(self) -> WeightedCost:
        return WeightedCost(
            self.load_cost
            + self.bypass_cost
            + self.retry_cost
            + self.peer_cost
        )


@dataclass(frozen=True)
class ResolvedQuery:
    """One query's outcome under a fault-aware replay.

    Returned by :meth:`DecisionPipeline.resolve` only — both kept for
    the frozen perf benchmark, exactly like
    :meth:`~repro.sim.results.SimulationResult.charge_resolved`.

    Attributes:
        decision: What the policy asked for (before faults intervened).
        accounting: The WAN charges the query actually generated,
            retry waste included.
        outcome: ``"served"``, ``"bypassed"``, ``"partial"``, or
            ``"unavailable"`` — what the client actually got.
        retries: Transfer attempts beyond the first, summed across the
            query's loads and bypass shipments.
        failed_loads: Object ids whose loads exhausted their retries
            (rolled back out of the cache via ``policy.invalidate``).
    """

    decision: Decision
    accounting: QueryAccounting
    outcome: str
    retries: int = 0
    failed_loads: Tuple[str, ...] = ()


class WanSource:
    """Where a settled query's bytes come from: the seam of
    :meth:`DecisionPipeline._settle`, which calls :meth:`begin`,
    :meth:`load` per decided load, :meth:`serve` or :meth:`bypass` (and
    :meth:`serve` when a dark bypass falls back to resident objects),
    then :meth:`waste`.  :class:`PricedWan` prices catalog sizes through
    a resilient transport; ``repro.core.proxy.MediatedWan`` executes
    through the proxy's mediator.  ``faulted`` is False when no transfer
    can fail: such events carry no outcome, as before faults existed.
    """

    __slots__ = ()
    faulted = True

    def begin(self, event: CompiledQuery, index: int) -> None:
        raise NotImplementedError

    def load(
        self, object_id: str
    ) -> Optional[Tuple[RawBytes, WeightedCost, bool]]:
        """``(bytes, cost, via_peer)``, or None when the load failed."""
        raise NotImplementedError

    def serve(self) -> None:
        raise NotImplementedError

    def bypass(
        self, partial_results: bool
    ) -> Optional[Tuple[RawBytes, WeightedCost, str]]:
        """``(bytes, cost, outcome)``, or None when a backend stayed
        dark (partials shipped before it are then waste)."""
        raise NotImplementedError

    def waste(self) -> Tuple[int, RawBytes, WeightedCost]:
        """``(retries, retry bytes, retry cost)`` since :meth:`begin`."""
        raise NotImplementedError


class PricedWan(WanSource):
    """Catalog-priced: a load ships its object's catalog size, a bypass
    each involved server's share of the prepared bypass bytes, through
    a resilient transport at the link weights."""

    __slots__ = (
        "pipeline", "transport", "event", "index",
        "retries", "wasted_bytes", "wasted_cost",
    )

    def __init__(
        self, pipeline: "DecisionPipeline", transport: "ResilientTransport"
    ) -> None:
        self.pipeline = pipeline
        self.transport = transport

    def begin(self, event: CompiledQuery, index: int) -> None:
        self.event, self.index, self.retries = event, index, 0
        self.wasted_bytes, self.wasted_cost = ZERO_BYTES, ZERO_COST

    def _ship(
        self, server: str, num_bytes: int, cost: WeightedCost
    ) -> Tuple["TransportOutcome", WeightedCost]:
        """Send ``num_bytes``; the attempt and its (brownout) cost."""
        weight = self.pipeline.federation.network.link(server).weight
        sent = self.transport.send(server, num_bytes, self.index, weight)
        self.retries += sent.retries
        if sent.wasted_bytes:
            self.wasted_bytes = RawBytes(self.wasted_bytes + sent.wasted_bytes)
            self.wasted_cost = WeightedCost(self.wasted_cost + sent.wasted_cost)
        if sent.cost_multiplier != 1.0:
            cost = WeightedCost(cost * sent.cost_multiplier)
        return sent, cost

    def load(
        self, object_id: str
    ) -> Optional[Tuple[RawBytes, WeightedCost, bool]]:
        catalog, tracer = self.pipeline.catalog, self.pipeline.tracer
        server, size = catalog.server(object_id), catalog.size(object_id)
        span = None
        if tracer is not None:
            span = tracer.start(
                STAGE_LOAD, index=self.index, tenant=self.event.tenant,
                object=object_id, server=server,
            )
        sent, cost = self._ship(server, size, catalog.fetch_cost(object_id))
        if tracer is not None and span is not None:
            tracer.finish(
                span, bytes_moved=int(size) + sent.wasted_bytes,
                ok=sent.ok, retries=sent.retries,
            )
        return (size, cost, False) if sent.ok else None

    def serve(self) -> None:
        pass

    def bypass(
        self, partial_results: bool
    ) -> Optional[Tuple[RawBytes, WeightedCost, str]]:
        event, tracer = self.event, self.pipeline.tracer
        network = self.pipeline.federation.network
        shares = split_bypass_bytes(event.bypass_bytes, event.servers)
        span = None
        if tracer is not None:
            span = tracer.start(
                STAGE_BYPASS, index=self.index, tenant=event.tenant
            )
        shipped: List[Tuple[int, WeightedCost]] = []
        for server, share in shares:
            sent, cost = self._ship(server, share, network.cost(server, share))
            if sent.ok:
                shipped.append((share, cost))
        dark = len(shipped) < len(shares)
        moved = raw_bytes(sum(share for share, _ in shipped))
        if tracer is not None and span is not None:
            tracer.finish(
                span, bytes_moved=moved, servers=len(shares), dark=dark
            )
        if not shares:
            # No server attribution (synthetic traces): the WAN is
            # charged as in the fault-free path, at unit weight.
            unit_cost = self.pipeline.bypass_cost(event.bypass_bytes)
            return raw_bytes(event.bypass_bytes), unit_cost, OUTCOME_BYPASSED
        moved_cost = WeightedCost(sum(cost for _, cost in shipped))
        if not dark:
            return moved, moved_cost, OUTCOME_BYPASSED
        if shipped and partial_results:
            return moved, moved_cost, OUTCOME_PARTIAL
        for share, cost in shipped:  # discarded partials: pure waste
            self.wasted_bytes = RawBytes(self.wasted_bytes + share)
            self.wasted_cost = WeightedCost(self.wasted_cost + cost)
        return None

    def waste(self) -> Tuple[int, RawBytes, WeightedCost]:
        return self.retries, self.wasted_bytes, self.wasted_cost


class DecisionPipeline:
    """Query construction, WAN accounting and the per-query step.

    Args:
        federation: Object metadata, link weights, servers.
        granularity: ``"table"`` or ``"column"``.
        policy_sees_weights: When True (default) policies receive
            link-weighted fetch costs and cost-unit yields (the BYHR
            view); when False they see raw byte sizes (the BYU
            simplification).  WAN charges are always weighted — the flag
            only changes what the policy knows, enabling the
            BYHR-vs-BYU ablation.
        catalog: Optional pre-built catalog; defaults to the
            federation's shared one.
        instrumentation: Optional observability sink; decision events
            flow through :meth:`emit_decision`.
        tracer: Optional span tracer; ``None`` turns tracing off, and
            the replay hot path then pays one ``is None`` test per
            traced site and nothing else.
    """

    def __init__(
        self,
        federation: Federation,
        granularity: str = "table",
        policy_sees_weights: bool = True,
        catalog: Optional[ObjectCatalog] = None,
        instrumentation: Optional[Instrumentation] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if granularity not in GRANULARITIES:
            raise CacheError(
                f"granularity must be 'table' or 'column', "
                f"got {granularity!r}"
            )
        self.federation = federation
        self.granularity = granularity
        self.policy_sees_weights = policy_sees_weights
        self.catalog = catalog or shared_catalog(federation)
        self.instrumentation = instrumentation
        self.tracer = tracer

    # -- query construction ---------------------------------------------

    def attribute(
        self, plan: QueryPlan, yield_bytes: int
    ) -> Dict[str, float]:
        """Per-object yield shares of a planned query (§6 rules)."""
        if self.granularity == "table":
            return attribute_yield_tables(plan, yield_bytes)
        return attribute_yield_columns(plan, yield_bytes)

    def build_query(
        self,
        index: int,
        object_yields: Mapping[str, float],
        yield_bytes: int,
        bypass_bytes: int,
        sql: str = "",
    ) -> CacheQuery:
        """Assemble the policy-facing event under the active cost view."""
        requests: List[ObjectRequest] = []
        for object_id, share in sorted(object_yields.items()):
            size = self.catalog.size(object_id)
            # Both view quantities cross the ObjectRequest boundary as
            # plain floats; each branch fills them in one currency.
            fetch_cost: float
            shown_yield: float
            if self.policy_sees_weights:
                # BYHR view: both the load price and the per-query
                # savings are expressed in link-weighted cost units, so
                # an object behind an expensive link is *more* valuable
                # to cache (eq. 1's f factor), not less.
                weighted_fetch = self.catalog.fetch_cost(object_id)
                weight = per_byte_weight(weighted_fetch, size)
                fetch_cost = weighted_fetch
                shown_yield = weigh(share, weight)
            else:
                # BYU view: both currencies are raw bytes.
                fetch_cost = float(size)
                shown_yield = share
            requests.append(
                ObjectRequest(
                    object_id=object_id,
                    size=size,
                    fetch_cost=fetch_cost,
                    yield_bytes=shown_yield,
                )
            )
        return CacheQuery(
            index=index,
            yield_bytes=yield_bytes,
            bypass_bytes=bypass_bytes,
            objects=tuple(requests),
            sql=sql,
        )

    def query_from_prepared(
        self, prepared: PreparedQuery, index: int
    ) -> CacheQuery:
        """Convert one prepared (offline) query into the policy event."""
        return self.build_query(
            index=index,
            object_yields=prepared.object_yields(self.granularity),
            yield_bytes=prepared.yield_bytes,
            bypass_bytes=prepared.bypass_bytes,
            sql=prepared.sql,
        )

    def compile_query(
        self, prepared: PreparedQuery, index: int
    ) -> CompiledQuery:
        """Lower one prepared query to the event :meth:`step` consumes."""
        return CompiledQuery(
            query=self.query_from_prepared(prepared, index),
            bypass_bytes=prepared.bypass_bytes,
            servers=tuple(prepared.servers),
            tenant=prepared.tenant,
        )

    def compile_trace(
        self, trace: "PreparedTrace | CompiledTrace"
    ) -> CompiledTrace:
        """Lower a prepared trace to its policy-facing event stream.

        Memoized per (federation, trace, granularity, cost view): every
        simulator run, sweep cell, and fleet client over the same trace
        shares one compiled stream.  An already-compiled trace passes
        through — after checking it was compiled under this pipeline's
        view, since replaying a stream built for a different granularity
        or cost currency would silently change every decision.
        """
        if isinstance(trace, CompiledTrace):
            if (
                trace.granularity != self.granularity
                or trace.policy_sees_weights != self.policy_sees_weights
            ):
                raise CacheError(
                    f"trace {trace.name!r} was compiled for "
                    f"granularity={trace.granularity!r}, "
                    f"policy_sees_weights={trace.policy_sees_weights}; "
                    f"this pipeline needs ({self.granularity!r}, "
                    f"{self.policy_sees_weights})"
                )
            return trace
        views = _compiled_memo(self.federation, trace)
        key = (self.granularity, self.policy_sees_weights)
        compiled = views.get(key)
        if compiled is None:
            compiled = self._build_compiled(trace)
            views[key] = compiled
        return compiled

    def iter_compiled(
        self, queries: Iterable[PreparedQuery]
    ) -> Iterator[CompiledQuery]:
        """Lazily lower prepared queries to policy-facing events.

        The streaming counterpart of :meth:`compile_trace`: one
        :class:`CompiledQuery` at a time, nothing memoized, nothing
        materialized.  Million-query replays chain a prepared-query
        stream through this straight into the streaming simulator, so
        the full event list never exists in memory.
        """
        for index, prepared in enumerate(queries):
            yield self.compile_query(prepared, index)

    def _build_compiled(self, trace: PreparedTrace) -> CompiledTrace:
        events = tuple(
            self.compile_query(prepared, index)
            for index, prepared in enumerate(trace)
        )
        totals = accumulate_object_yields(trace, self.granularity)
        return CompiledTrace(
            name=trace.name,
            granularity=self.granularity,
            policy_sees_weights=self.policy_sees_weights,
            sequence_bytes=trace.sequence_bytes,
            events=events,
            object_totals=tuple(sorted(totals.items())),
        )

    # -- WAN accounting --------------------------------------------------

    def bypass_cost(
        self,
        bypass_bytes: int,
        servers: Sequence[str] = (),
    ) -> WeightedCost:
        """Link-weighted cost of bypassing one query.

        Prepared traces store total decomposed bytes, so a multi-server
        query is weighted by the mean of the involved links.
        """
        if not servers:
            return weigh(bypass_bytes, UNIT_WEIGHT)
        if len(servers) == 1:
            return self.federation.network.cost(servers[0], bypass_bytes)
        weights = [
            self.federation.network.link(server).weight
            for server in servers
        ]
        mean_weight = sum(weights) / len(weights)
        return weigh(bypass_bytes, mean_weight)

    def account(
        self,
        decision: Decision,
        bypass_bytes: int,
        servers: Sequence[str] = (),
        peer_loads: Sequence[str] = (),
    ) -> QueryAccounting:
        """Charge one decision: loads always, bypass unless served.

        ``peer_loads`` names the subset of ``decision.loads`` a sibling
        proxy supplied (cooperative fleets only): those objects move
        over the peer link class (``peer_weight × bytes``, off the WAN)
        while the remainder pays the normal backend fetch.  The
        decision itself is untouched: cooperation changes where bytes
        come from, never what the policy chose (policies stay
        cooperation-blind, exactly as they are fault-blind).
        """
        loads: Sequence[str] = decision.loads
        peer_bytes = ZERO_BYTES
        peer_cost = ZERO_COST
        if peer_loads:
            peers = frozenset(peer_loads)
            network = self.federation.network
            for object_id in loads:
                if object_id in peers:
                    size = self.catalog.size(object_id)
                    peer_bytes = RawBytes(peer_bytes + size)
                    peer_cost = WeightedCost(
                        peer_cost + network.peer_cost(size)
                    )
            loads = [
                object_id
                for object_id in loads
                if object_id not in peers
            ]
        load_bytes, load_cost = ZERO_BYTES, ZERO_COST
        for object_id in loads:
            load_bytes = RawBytes(load_bytes + self.catalog.size(object_id))
            load_cost = WeightedCost(
                load_cost + self.catalog.fetch_cost(object_id)
            )
        if decision.served_from_cache:
            charged_bypass, charged_cost = ZERO_BYTES, ZERO_COST
        else:
            charged_bypass = raw_bytes(bypass_bytes)
            charged_cost = self.bypass_cost(bypass_bytes, servers)
        return QueryAccounting(
            load_bytes=load_bytes,
            load_cost=load_cost,
            bypass_bytes=charged_bypass,
            bypass_cost=charged_cost,
            peer_bytes=peer_bytes,
            peer_cost=peer_cost,
        )

    # -- the per-query step ----------------------------------------------

    def _decide(
        self,
        event: CompiledQuery,
        policy: "CachePolicy",
        index: int,
        faulted: bool,
    ) -> Decision:
        """Ask the policy (the one place it is asked).  A faulted
        query's ``decide`` span also records what the policy intended,
        since what happens may differ."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.start(STAGE_DECIDE, index=index, tenant=event.tenant)
        decision = policy.process(event.query)
        if tracer is not None and span is not None:
            if faulted:
                span.set("served", decision.served_from_cache)
            tracer.finish(span)
        return decision

    def _settle(
        self,
        event: CompiledQuery,
        decision: Decision,
        policy: "CachePolicy",
        wan: WanSource,
        index: int,
        partial_results: bool,
    ) -> Tuple[QueryAccounting, str, int, List[str], int]:
        """Settle a decided query whose transfers can fail.

        The policy decided as it would fault-free (it never sees the
        network); ``wan`` says what actually happened.  A failed load is
        rolled back out of the cache via ``policy.invalidate``.  A serve
        whose *needed* load failed degrades to a bypass.  A bypass that
        finds a backend dark serves a partial result
        (``partial_results``), falls back to the cache when every
        referenced object is resident, or is ``"unavailable"``.  With
        no faults every transfer lands first time at multiplier 1.0, so
        the accounting equals :meth:`account`'s.

        Returns ``(accounting, outcome, retries, failed_loads,
        peer_hits)``.
        """
        query = event.query
        wan.begin(event, index)
        load_bytes = peer_bytes = ZERO_BYTES
        load_cost = peer_cost = ZERO_COST
        failed_loads: List[str] = []
        peer_hits = 0
        for object_id in decision.loads:
            moved = wan.load(object_id)
            if moved is None:
                policy.invalidate(object_id)
                failed_loads.append(object_id)
            elif moved[2]:
                peer_bytes = RawBytes(peer_bytes + moved[0])
                peer_cost = WeightedCost(peer_cost + moved[1])
                peer_hits += 1
            else:
                load_bytes = RawBytes(load_bytes + moved[0])
                load_cost = WeightedCost(load_cost + moved[1])
        wants_serve = decision.served_from_cache
        if wants_serve and failed_loads:
            needed = {request.object_id for request in query.objects}
            wants_serve = not needed.intersection(failed_loads)
        bypass_bytes, bypass_cost = ZERO_BYTES, ZERO_COST
        outcome = OUTCOME_SERVED
        if wants_serve:
            wan.serve()
        else:
            shipped = wan.bypass(partial_results)
            if shipped is not None:
                bypass_bytes, bypass_cost, outcome = shipped
            elif query.objects and all(
                request.object_id in policy.store for request in query.objects
            ):
                wan.serve()
            else:
                outcome = OUTCOME_UNAVAILABLE
        retries, retry_bytes, retry_cost = wan.waste()
        accounting = QueryAccounting(
            load_bytes, load_cost, bypass_bytes, bypass_cost,
            retry_bytes, retry_cost, peer_bytes, peer_cost,
        )
        return accounting, outcome, retries, failed_loads, peer_hits

    def resolve(
        self,
        event: CompiledQuery,
        policy: "CachePolicy",
        transport: "ResilientTransport",
        tick: int,
        partial_results: bool = False,
    ) -> ResolvedQuery:
        """Decide and settle one query behind ``transport``, uncharged —
        kept only for the frozen perf benchmark, like
        :meth:`~repro.sim.results.SimulationResult.charge_resolved`."""
        decision = self._decide(event, policy, tick, True)
        accounting, outcome, retries, failed, _ = self._settle(
            event, decision, policy, PricedWan(self, transport), tick,
            partial_results,
        )
        return ResolvedQuery(
            decision, accounting, outcome, retries, tuple(failed)
        )

    def step(
        self,
        event: CompiledQuery,
        policy: "CachePolicy",
        result: "SimulationResult",
        index: int,
        transport: "Optional[ResilientTransport | WanSource]" = None,
        partial_results: bool = False,
        peer_lookup: Optional[Callable[[str], Optional[str]]] = None,
        source: str = "simulator",
        shard: str = "",
        outcome: str = "",
    ) -> Tuple[Decision, QueryAccounting]:
        """Decide one query and settle it: the whole per-query sequence.

        Opens the ``query`` root span, decides, settles, closes the
        span, charges ``result`` once and emits the
        :class:`~repro.core.instrumentation.DecisionEvent` once.  The
        prepared-trace replays, the service and the live proxy all call
        this and nothing else per query; they differ only in where
        ``event`` and its bytes come from.

        Args:
            index: The query's position in its driver's decided order;
                also the logical fault tick under a transport.
            transport: Where the bytes come from when transfers can
                fail: a :class:`~repro.faults.transport.ResilientTransport`
                (sizes priced from the catalog behind it, a
                :class:`PricedWan`) or any :class:`WanSource`, such as
                the proxy's ``MediatedWan``.  The query is then settled
                by :meth:`_settle`; without one by :meth:`account`.
            partial_results: Serve what reachable servers shipped when
                others are dark (catalog-priced settles only).
            peer_lookup: Fleet hook naming the sibling holding an
                object (or None); loads it names ride the peer link.
                Consulted by :meth:`account` only.
            source: The driver, as stamped on the emitted event.
            shard: The deciding fleet shard ("" outside fleets).
            outcome: Preset by admission control, the policy not
                consulted and its state untouched: ``"shed"`` bypasses
                the query past the cache, ``"unavailable"`` refuses it
                and moves zero bytes.  "" lets the policy decide.
        """
        query = event.query
        tracer = self.tracer
        root = None
        if tracer is not None:
            root = tracer.start(
                STAGE_QUERY, index=index, tenant=event.tenant
            )
        retries = 0
        failed_loads = 0
        peer_hits = 0
        if outcome and transport is None:
            decision = Decision(served_from_cache=False)
            refused = outcome == OUTCOME_UNAVAILABLE
            accounting = self.account(
                decision,
                bypass_bytes=0 if refused else event.bypass_bytes,
                servers=event.servers,
            )
        elif transport is None:
            decision = self._decide(event, policy, index, False)
            peer_loads: Sequence[str] = ()
            if peer_lookup is not None and decision.loads:
                peer_loads = [
                    object_id
                    for object_id in decision.loads
                    if peer_lookup(object_id) is not None
                ]
                peer_hits = len(peer_loads)
            span = None
            if tracer is not None:
                span = tracer.start(STAGE_ACCOUNT, index=index)
            accounting = self.account(
                decision,
                bypass_bytes=event.bypass_bytes,
                servers=event.servers,
                peer_loads=peer_loads,
            )
            if tracer is not None and span is not None:
                tracer.finish(span)
        else:
            decision = self._decide(event, policy, index, True)
            wan = (
                transport
                if isinstance(transport, WanSource)
                else PricedWan(self, transport)
            )
            accounting, outcome, retries, failed, peer_hits = self._settle(
                event, decision, policy, wan, index, partial_results
            )
            failed_loads = len(failed)
            if not wan.faulted:
                outcome = ""
        if tracer is not None and root is not None:
            if outcome:
                root.set("outcome", outcome)
            tracer.finish(
                root,
                bytes_moved=int(accounting.wan_bytes),
                served=decision.served_from_cache,
            )
        result.charge(
            accounting,
            decision,
            peer_hits,
            outcome,
            retries,
            failed_loads,
            query.yield_bytes,
        )
        if self.instrumentation is not None:
            self.emit_decision(
                DecisionEvent(
                    index=index,
                    source=source,
                    policy=policy.name,
                    granularity=self.granularity,
                    served_from_cache=decision.served_from_cache,
                    loads=tuple(decision.loads),
                    evictions=tuple(decision.evictions),
                    load_bytes=accounting.load_bytes,
                    bypass_bytes=accounting.bypass_bytes,
                    weighted_cost=accounting.weighted_cost,
                    sql=query.sql,
                    yield_bytes=query.yield_bytes,
                    retries=retries,
                    retry_bytes=accounting.retry_bytes,
                    outcome=outcome,
                    tenant=event.tenant,
                    shard=shard,
                    peer_bytes=accounting.peer_bytes,
                    failed_loads=failed_loads,
                    peer_hits=peer_hits,
                )
            )
        return decision, accounting

    # -- instrumentation -------------------------------------------------

    def emit_decision(self, event: DecisionEvent) -> None:
        """Forward one decision to the instrumentation sink, if any."""
        if self.instrumentation is not None:
            self.instrumentation.record_decision(event)


def split_bypass_bytes(
    total: int, servers: Sequence[str]
) -> Tuple[Tuple[str, int], ...]:
    """Deterministic per-server split of a query's bypass bytes.

    Prepared traces store only the *total* decomposed bytes plus the
    involved servers; the fault layer needs a per-server decomposition
    to ship each share independently.  The split is even with the
    remainder going to the earliest servers, in the trace's stable
    server order — same inputs, same split, every run.
    """
    if not servers:
        return ()
    base, remainder = divmod(int(total), len(servers))
    return tuple(
        (server, base + (1 if position < remainder else 0))
        for position, server in enumerate(servers)
    )
