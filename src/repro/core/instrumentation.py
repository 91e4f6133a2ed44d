"""Observability seam for the decision pipeline.

Every replay — offline (:class:`~repro.sim.simulator.Simulator`) or
online (:class:`~repro.core.proxy.BypassYieldProxy`) — can emit a
structured decision trace without touching policy code: counters,
per-query :class:`DecisionEvent` records, and named stage timers, with
optional stdlib ``logging`` integration and pluggable :class:`Probe`
hooks for external collectors.

The instrumentation object is deliberately cheap: callers hold ``None``
by default and pay nothing; when one is attached, recording a decision
is a dataclass construction plus a few dict updates.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

#: Version tag carried by :meth:`Instrumentation.snapshot` payloads so
#: that merge/restore code can reject incompatible shapes.
SNAPSHOT_SCHEMA = 2

#: Counters whose unit cannot be inferred from their name alone.
_KNOWN_COUNTER_UNITS: Dict[str, str] = {
    "wan.weighted_cost": "cost",
    "fleet.wan_bytes": "bytes",
}


def counter_unit(name: str) -> str:
    """Unit of one named counter: ``bytes``, ``cost``, ``seconds`` or
    ``count``.

    Units follow naming conventions (``*_bytes`` counters are bytes,
    ``*_cost`` counters are link-weighted cost units, ``*_seconds`` are
    wall-clock seconds) with a small table of known exceptions.  The
    unit rides along in snapshots so merged/persisted telemetry stays
    self-describing (RPR001's unit-mixing discipline, applied to
    observability output).
    """
    known = _KNOWN_COUNTER_UNITS.get(name)
    if known is not None:
        return known
    tail = name.rsplit(".", 1)[-1]
    if tail.endswith("bytes"):
        return "bytes"
    if tail.endswith("cost"):
        return "cost"
    if tail.endswith("seconds"):
        return "seconds"
    return "count"


def served_hit(served_from_cache: bool, outcome: str) -> bool:
    """Whether a query counts as served from cache.

    The one hit predicate every fold uses — ``SimulationResult.charge``,
    the instrumentation counters, the metrics probe and the trace
    reports.  A resolved ``outcome`` is what actually happened (a serve
    degraded to "unavailable" by a dark backend is not a hit, whatever
    the policy intended); without one the policy's decision stands.
    """
    return outcome == "served" if outcome else served_from_cache


@dataclass(frozen=True)
class DecisionEvent:
    """One per-query load/serve/bypass decision, fully accounted.

    Attributes:
        index: Query number (the paper's notion of time).
        source: ``"simulator"`` or ``"proxy"`` — which driver emitted it.
        policy: Name of the deciding policy.
        granularity: ``"table"`` or ``"column"``.
        served_from_cache: True when the query was evaluated locally.
        loads: Object ids fetched into the cache for this query.
        evictions: Object ids evicted to make room.
        load_bytes: WAN bytes spent on loads for this query.
        bypass_bytes: WAN bytes spent bypassing this query (0 on hits).
        weighted_cost: Link-weighted WAN cost this query added.
        sql: Query text (may be empty for synthetic traces).
        yield_bytes: Result size of the query (its yield), whichever
            path served it.  0 when the emitting driver predates the
            field (old traces).
        retries: Transfer attempts beyond the first this query needed
            (0 on fault-free runs).
        retry_bytes: WAN bytes burned by failed transfer attempts and
            discarded partials for this query.
        outcome: How the query was ultimately resolved under faults —
            ``"served"``, ``"bypassed"``, ``"partial"``, or
            ``"unavailable"``.  Empty for fault-free traces, whose
            outcome is implied by ``served_from_cache``.
        tenant: Client that issued the query ("" when the trace is
            untagged).  Per-tenant WAN attribution partitions on this.
        shard: Fleet shard (proxy instance) that decided the query (""
            outside cooperative fleet runs).  Per-shard attribution
            partitions on this.
        peer_bytes: Object bytes a sibling shard supplied instead of
            the backend (0 outside cooperative fleet runs) — regional
            traffic, excluded from :attr:`wan_bytes`.
        failed_loads: How many of ``loads`` exhausted their retries
            and were rolled back out of the cache (0 on fault-free
            runs).
        peer_hits: How many of ``loads`` a sibling shard supplied (0
            outside cooperative fleet runs).
    """

    index: int
    source: str
    policy: str
    granularity: str
    served_from_cache: bool
    loads: Tuple[str, ...]
    evictions: Tuple[str, ...]
    load_bytes: int
    bypass_bytes: int
    weighted_cost: float
    sql: str = ""
    yield_bytes: int = 0
    retries: int = 0
    retry_bytes: int = 0
    outcome: str = ""
    tenant: str = ""
    shard: str = ""
    peer_bytes: int = 0
    failed_loads: int = 0
    peer_hits: int = 0

    @property
    def hit(self) -> bool:
        """Served from cache, as it actually resolved (:func:`served_hit`)."""
        return served_hit(self.served_from_cache, self.outcome)

    @property
    def net_loads(self) -> int:
        """Loads that stayed in the cache: decided minus rolled back."""
        return len(self.loads) - self.failed_loads

    @property
    def wan_bytes(self) -> int:
        """Total WAN bytes this query added (loads + bypass + retry
        waste)."""
        return self.load_bytes + self.bypass_bytes + self.retry_bytes

    def to_json(self) -> Dict[str, object]:
        """JSON-safe dict that :meth:`from_json` restores exactly."""
        data: Dict[str, object] = {
            "index": self.index,
            "source": self.source,
            "policy": self.policy,
            "granularity": self.granularity,
            "served_from_cache": self.served_from_cache,
            "loads": list(self.loads),
            "evictions": list(self.evictions),
            "load_bytes": self.load_bytes,
            "bypass_bytes": self.bypass_bytes,
            "weighted_cost": self.weighted_cost,
            "sql": self.sql,
            "yield_bytes": self.yield_bytes,
            "retries": self.retries,
            "retry_bytes": self.retry_bytes,
            "outcome": self.outcome,
            "tenant": self.tenant,
        }
        # Fleet and fault fields appear only when set, so traces from
        # runs without them stay byte-identical to earlier output (the
        # repro-report diff gate compares serialized lines).
        if self.shard:
            data["shard"] = self.shard
        if self.peer_bytes:
            data["peer_bytes"] = self.peer_bytes
        if self.failed_loads:
            data["failed_loads"] = self.failed_loads
        if self.peer_hits:
            data["peer_hits"] = self.peer_hits
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "DecisionEvent":
        """Rebuild an event from :meth:`to_json` output."""
        loads = data.get("loads", [])
        evictions = data.get("evictions", [])
        if not isinstance(loads, list) or not isinstance(evictions, list):
            raise ValueError("event loads/evictions must be lists")
        return cls(
            index=int(data["index"]),  # type: ignore[call-overload]
            source=str(data["source"]),
            policy=str(data["policy"]),
            granularity=str(data["granularity"]),
            served_from_cache=bool(data["served_from_cache"]),
            loads=tuple(str(item) for item in loads),
            evictions=tuple(str(item) for item in evictions),
            load_bytes=int(data["load_bytes"]),  # type: ignore[call-overload]
            bypass_bytes=int(data["bypass_bytes"]),  # type: ignore[call-overload]
            weighted_cost=float(data["weighted_cost"]),  # type: ignore[arg-type]
            sql=str(data.get("sql", "")),
            yield_bytes=int(data.get("yield_bytes", 0)),  # type: ignore[call-overload]
            retries=int(data.get("retries", 0)),  # type: ignore[call-overload]
            retry_bytes=int(data.get("retry_bytes", 0)),  # type: ignore[call-overload]
            outcome=str(data.get("outcome", "")),
            tenant=str(data.get("tenant", "")),
            shard=str(data.get("shard", "")),
            peer_bytes=int(data.get("peer_bytes", 0)),  # type: ignore[call-overload]
            failed_loads=int(data.get("failed_loads", 0)),  # type: ignore[call-overload]
            peer_hits=int(data.get("peer_hits", 0)),  # type: ignore[call-overload]
        )


class Probe:
    """Pluggable hook receiving instrumentation callbacks.

    Subclass and override any subset; the base methods are no-ops so a
    probe only pays for what it watches.
    """

    def on_decision(self, event: DecisionEvent) -> None:
        """Called once per query decision."""

    def on_counter(self, name: str, value: float) -> None:
        """Called on every counter increment with the increment value."""

    def on_stage(self, name: str, seconds: float) -> None:
        """Called when a timed stage finishes."""


class Instrumentation:
    """Counters, decision events, and stage timers for one run.

    Args:
        logger: A :class:`logging.Logger`, a logger name, or None.  When
            set, decisions are logged at DEBUG level.
        max_events: Bound on retained decision events (None keeps all;
            0 disables event retention while keeping counters/timers).
    """

    def __init__(
        self,
        logger: Union[logging.Logger, str, None] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if isinstance(logger, str):
            logger = logging.getLogger(logger)
        self.logger = logger
        self.counters: Dict[str, float] = {}
        self.stage_seconds: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}
        self.probes: List[Probe] = []
        self._max_events = max_events
        self.events: Deque[DecisionEvent] = deque(
            maxlen=max_events if max_events not in (None, 0) else None
        )
        self._retain_events = max_events != 0
        #: Total decisions recorded, including any the retention bound
        #: (or ``max_events=0``) dropped — ``events_truncated`` compares
        #: this against ``len(events)``.
        self.events_seen = 0

    @property
    def max_events(self) -> Optional[int]:
        """The retention bound this sink was built with."""
        return self._max_events

    @property
    def events_truncated(self) -> bool:
        """True when some recorded events are no longer retained."""
        return self.events_seen > len(self.events)

    # -- probes ---------------------------------------------------------

    def add_probe(self, probe: Probe) -> Probe:
        """Attach a probe; returns it for chaining."""
        self.probes.append(probe)
        return probe

    # -- counters -------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value``."""
        self.counters[name] = self.counters.get(name, 0.0) + value
        for probe in self.probes:
            probe.on_counter(name, value)

    # -- stage timers ---------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a named stage; accumulates across calls."""
        start = time.perf_counter()  # repro-lint: allow[RPR002] timers are observability-only
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start  # repro-lint: allow[RPR002] timers are observability-only
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0) + elapsed
            )
            self.stage_calls[name] = self.stage_calls.get(name, 0) + 1
            for probe in self.probes:
                probe.on_stage(name, elapsed)

    # -- decision events ------------------------------------------------

    def record_decision(self, event: DecisionEvent) -> None:
        """Record one per-query decision event."""
        if self._retain_events:
            self.events.append(event)
        self.events_seen += 1
        self.count("decisions")
        hit = event.hit
        if hit:
            self.count("decisions.served")
        else:
            self.count("decisions.bypassed")
        net_loads = event.net_loads
        if net_loads:
            self.count("decisions.loads", net_loads)
        if event.evictions:
            self.count("decisions.evictions", len(event.evictions))
        self.count("wan.load_bytes", event.load_bytes)
        self.count("wan.bypass_bytes", event.bypass_bytes)
        self.count("wan.weighted_cost", event.weighted_cost)
        if event.retries:
            self.count("decisions.retries", event.retries)
        if event.retry_bytes:
            self.count("wan.retry_bytes", event.retry_bytes)
        if event.outcome:
            self.count(f"decisions.outcome.{event.outcome}")
        # Per-tenant attribution.  Untagged traffic lands in its own
        # bucket so the tenant partition always sums exactly to the
        # aggregate counters above.
        tenant = event.tenant or "untagged"
        self.count(f"tenant.{tenant}.decisions")
        if hit:
            self.count(f"tenant.{tenant}.served")
        self.count(f"tenant.{tenant}.wan_bytes", event.wan_bytes)
        self.count(f"tenant.{tenant}.weighted_cost", event.weighted_cost)
        # Fleet attribution: sibling-supplied bytes and per-shard
        # partitions, recorded only for tagged (cooperative) decisions
        # so non-fleet runs emit exactly the pre-fleet counter set.
        if event.peer_bytes:
            self.count("fleet.peer_bytes", event.peer_bytes)
        if event.peer_hits:
            self.count("fleet.peer_hits", event.peer_hits)
        if event.shard:
            shard = event.shard
            self.count(f"fleet.shard.{shard}.decisions")
            if hit:
                self.count(f"fleet.shard.{shard}.served")
            self.count(f"fleet.shard.{shard}.wan_bytes", event.wan_bytes)
            if event.peer_bytes:
                self.count(
                    f"fleet.shard.{shard}.peer_bytes", event.peer_bytes
                )
        if self.logger is not None:
            self.logger.debug(
                "q%d [%s/%s] %s loads=%s evictions=%s wan=%d",
                event.index,
                event.source,
                event.policy,
                "serve" if hit else "bypass",
                list(event.loads),
                list(event.evictions),
                event.wan_bytes,
            )
        for probe in self.probes:
            probe.on_decision(event)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Structured, merge-safe view of everything recorded so far.

        The payload is pure JSON-serializable data: counters annotated
        with their units (see :func:`counter_unit`), stage timers, and
        the event-retention accounting (``events`` retained versus
        ``events_seen`` recorded, plus the resulting truncation flag).
        :meth:`merge_snapshot` consumes exactly this shape, and
        ``reset()`` + ``merge_snapshot(snapshot())`` round-trips.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": dict(self.counters),
            "counter_units": {
                name: counter_unit(name) for name in self.counters
            },
            "stages": {
                name: {
                    "seconds": seconds,
                    "calls": self.stage_calls.get(name, 0),
                }
                for name, seconds in self.stage_seconds.items()
            },
            "events": len(self.events),
            "events_seen": self.events_seen,
            "events_truncated": self.events_truncated,
        }

    def merge(self, other: "Instrumentation") -> "Instrumentation":
        """Fold another sink's recorded state into this one.

        Counters and stage timers add; retained events append in
        ``other``'s order (this sink's retention bound still applies);
        ``events_seen`` accumulates so truncation stays visible.  Merge
        order is the caller's iteration order, which the parallel
        runners keep deterministic (submission order).  Probes are not
        merged.  Returns ``self`` for chaining.
        """
        self.merge_snapshot(other.snapshot())
        if self._retain_events:
            self.events.extend(other.events)
        return self

    def merge_snapshot(
        self, snapshot: Mapping[str, object]
    ) -> "Instrumentation":
        """Fold a :meth:`snapshot` payload into this sink.

        This is how parallel sweep workers aggregate: each worker ships
        its snapshot (cheap, JSON-safe) back to the parent, which merges
        them in deterministic task order.  Event *bodies* do not cross
        the process boundary — only their count — so ``events_seen``
        grows while retained events do not, and ``events_truncated``
        correctly reports the merged view as partial.
        """
        schema = snapshot.get("schema", SNAPSHOT_SCHEMA)
        if not isinstance(schema, int) or schema > SNAPSHOT_SCHEMA:
            raise ValueError(
                f"cannot merge snapshot with schema {schema!r}; "
                f"this build understands <= {SNAPSHOT_SCHEMA}"
            )
        counters = snapshot.get("counters", {})
        if isinstance(counters, Mapping):
            for name, value in counters.items():
                self.counters[str(name)] = (
                    self.counters.get(str(name), 0.0) + float(value)  # type: ignore[arg-type]
                )
        stages = snapshot.get("stages", {})
        if isinstance(stages, Mapping):
            for name, stage in stages.items():
                if not isinstance(stage, Mapping):
                    continue
                self.stage_seconds[str(name)] = self.stage_seconds.get(
                    str(name), 0.0
                ) + float(stage.get("seconds", 0.0))  # type: ignore[arg-type]
                self.stage_calls[str(name)] = self.stage_calls.get(
                    str(name), 0
                ) + int(stage.get("calls", 0))  # type: ignore[call-overload]
        events_seen = snapshot.get("events_seen", snapshot.get("events", 0))
        self.events_seen += int(events_seen)  # type: ignore[call-overload]
        return self

    @classmethod
    def from_snapshot(
        cls, snapshot: Mapping[str, object]
    ) -> "Instrumentation":
        """Rebuild a sink from a :meth:`snapshot` payload."""
        instrumentation = cls()
        instrumentation.merge_snapshot(snapshot)
        return instrumentation

    def reset(self) -> None:
        """Drop all recorded state (probes stay attached)."""
        self.counters.clear()
        self.stage_seconds.clear()
        self.stage_calls.clear()
        self.events.clear()
        self.events_seen = 0

    def __repr__(self) -> str:
        return (
            f"Instrumentation(counters={len(self.counters)}, "
            f"stages={len(self.stage_seconds)}, events={len(self.events)})"
        )
