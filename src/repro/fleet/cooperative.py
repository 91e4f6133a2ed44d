"""The cooperative fleet replay engine.

Independent fleets (``repro.sim.multi``) replay each client site in
isolation; here the sites are *shards* of one cooperative cache: on a
local miss each shard consults the consistent-hash ring owner of the
missed object (and optionally every sibling) before paying backend
cost, and a sibling hit ships the object over the peer link class at
``peer_weight × bytes`` instead of the full WAN fetch.

Design invariants:

* **Policies are cooperation-blind.**  ``policy.process(query)`` sees
  exactly the event it would see in an independent replay — cooperation
  only changes where load bytes are *sourced* (peer vs backend), via
  the ``peer_lookup`` hook of
  :meth:`~repro.core.pipeline.DecisionPipeline.step`.
  Consequently a single-shard cooperative run is byte-identical to the
  independent path, and an N-shard cooperative run makes the *same
  decisions* as N independent caches while paying strictly less WAN
  whenever at least one sibling hit occurs.
* **Per-shard policy state is independent.**  Sibling residency is
  probed with a read-only ``object_id in policy.store`` check; no shard
  ever mutates another shard's victim heaps or Landlord offsets, so the
  lock-free PR-4 fast paths need no coordination story.
* **Deterministic interleave.**  Shards advance in round-robin client
  order, one query per shard per logical tick, so sibling cache
  contents at any probe are a pure function of (traces, policies,
  ring) — same inputs, same bytes, every run and every process.
* **Per-shard faults.**  An optional
  :class:`~repro.faults.schedule.FaultSchedule` keyed by *shard* names
  darkens siblings: a down shard cannot serve peer transfers (its
  probes are skipped and the requester falls back to the backend), so
  shard outages degrade cooperation gracefully instead of losing data.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.instrumentation import Instrumentation
from repro.core.pipeline import DecisionPipeline
from repro.core.policies.base import CachePolicy
from repro.errors import CacheError
from repro.faults.engine import FaultEngine
from repro.federation.federation import Federation
from repro.fleet.ring import ConsistentHashRing
from repro.sim.results import SimulationResult
from repro.sim.streaming import SampledSeries
from repro.workload.trace import PreparedTrace

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule
    from repro.sim.multi import ClientSite


def split_trace(
    trace: PreparedTrace, shards: int, prefix: str = "shard"
) -> List[PreparedTrace]:
    """Round-robin a prepared trace into ``shards`` per-shard traces.

    The split models one user population spread across a proxy fleet:
    every shard sees a different query subsequence drawn from the same
    object universe, which is exactly the overlapping workload where
    cooperation pays (shard A's load is shard B's sibling hit).
    """
    if shards <= 0:
        raise CacheError("shard count must be positive")
    buckets: List[List] = [[] for _ in range(shards)]
    for position, query in enumerate(trace):
        buckets[position % shards].append(query)
    return [
        PreparedTrace(
            name=f"{trace.name}.{prefix}{index}", queries=bucket
        )
        for index, bucket in enumerate(buckets)
    ]


def run_cooperative(
    federation: Federation,
    clients: Sequence["ClientSite"],
    granularity: str = "table",
    policy_sees_weights: bool = True,
    record_series: Union[bool, str] = False,
    instrumentation: Optional[Instrumentation] = None,
    ring: Optional[ConsistentHashRing] = None,
    ring_seed: int = 0,
    probe_all_siblings: bool = False,
    faults: Optional["FaultSchedule"] = None,
) -> List[SimulationResult]:
    """Replay every shard's workload with sibling-hit transfers.

    Returns one :class:`SimulationResult` per client, in client order.
    The run is serial by construction — every probe reads the sibling
    caches as they stand *now*, which is the coupling that makes
    cooperation worth modeling (the independent mode stays the
    process-pool path).  Compiled event streams still come from the
    memoized :meth:`DecisionPipeline.compile_trace`, so repeat sweeps
    over the same traces skip query construction entirely.

    Args:
        ring: Pre-built catalog partition; by default a fresh
            :class:`ConsistentHashRing` over the client names seeded
            with ``ring_seed``.
        probe_all_siblings: Probe every sibling (client order) after
            the ring owner instead of the owner alone.  More peer hits
            per miss, N-1 probes per missed object.
        faults: Optional schedule keyed by *shard names*; a shard
            inside an outage/flap-down window cannot serve peer
            transfers at that tick.
    """
    if not clients:
        raise CacheError("a cooperative fleet needs at least one shard")
    names = [client.name for client in clients]
    if len(set(names)) != len(names):
        raise CacheError("shard names must be unique")
    if ring is None:
        ring = ConsistentHashRing(names, seed=ring_seed)
    else:
        missing = [name for name in names if name not in ring]
        if missing:
            raise CacheError(
                f"ring is missing shards {missing!r}; every client "
                "must own a slice of the catalog"
            )

    pipeline = DecisionPipeline(
        federation,
        granularity,
        policy_sees_weights,
        instrumentation=instrumentation,
    )
    engine = FaultEngine(faults) if faults is not None else None
    policies: Dict[str, CachePolicy] = {
        client.name: client.policy for client in clients
    }
    compiled = [pipeline.compile_trace(client.trace) for client in clients]
    cooperative = len(clients) > 1

    results = [
        SimulationResult(
            policy_name=client.policy.name,
            granularity=granularity,
            capacity_bytes=client.policy.capacity_bytes,
            sequence_bytes=float(stream.sequence_bytes),
        )
        for client, stream in zip(clients, compiled)
    ]
    series = [
        SampledSeries() if record_series == "sampled" else None
        for _ in clients
    ]

    def lookup_for(requester: str) -> Callable[[str], Optional[str]]:
        """The shard's peer hook: first live sibling holding an object,
        ring owner probed first.

        Residency is a read-only store-membership check — sibling
        policy state (recency, credits, heaps) is never touched, so a
        probe can never perturb the sibling's own decisions.
        """

        def lookup(object_id: str) -> Optional[str]:
            owner = ring.owner(object_id)
            candidates = [owner] if owner != requester else []
            if probe_all_siblings:
                candidates.extend(
                    name
                    for name in names
                    if name != requester and name != owner
                )
            for candidate in candidates:
                # ``tick`` is the round being replayed (the loop below).
                if engine is not None and not engine.is_up(candidate, tick):
                    continue
                if object_id in policies[candidate].store:
                    return candidate
            return None

        return lookup

    lookups = [
        lookup_for(client.name) if cooperative else None
        for client in clients
    ]
    rounds = max(len(stream.events) for stream in compiled)
    for tick in range(rounds):
        for position, client in enumerate(clients):
            events = compiled[position].events
            if tick >= len(events):
                continue
            result = results[position]
            pipeline.step(
                events[tick],
                client.policy,
                result,
                tick,
                source="fleet",
                shard=client.name,
                peer_lookup=lookups[position],
            )
            sampled = series[position]
            if sampled is not None:
                sampled.observe(result.breakdown.total_bytes)
            elif record_series:
                result.cumulative_bytes.append(result.breakdown.total_bytes)

    for result, stream, sampled in zip(results, compiled, series):
        result.queries = len(stream.events)
        if sampled is not None:
            result.cumulative_bytes = sampled.points()
            result.series_stride = sampled.stride
    return results
