"""Multi-client federation simulation.

Section 3: "Because each cache acts independently, the global problem
can be reduced to individual caches."  This module models a federation
serving many client sites, each with its own mediator cache and its own
workload, and reports the *global* WAN totals — the network-citizenship
quantity the paper optimizes.

Because the caches are independent, the fleet is embarrassingly
parallel: ``simulate_fleet(parallel=True)`` replays each client site in
its own worker process and aggregates identical results in client
order.

``simulate_fleet(cooperative=True)`` instead treats the client sites as
*shards* of one cooperative cache hierarchy (``repro.fleet``): a local
miss consults the consistent-hash ring owner before paying backend
cost, and sibling hits ship over cheap peer links.  With one shard (or
``cooperative=False``) the two modes are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

from repro.core.instrumentation import Instrumentation
from repro.core.pipeline import CompiledTrace
from repro.core.policies.base import CachePolicy
from repro.core.units import RawBytes, WeightedCost, raw_bytes
from repro.errors import CacheError
from repro.federation.federation import Federation
from repro.sim.results import SimulationResult
from repro.sim.runner import run_in_pool
from repro.sim.simulator import Simulator
from repro.workload.trace import PreparedTrace

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule
    from repro.fleet.ring import ConsistentHashRing


@dataclass
class ClientSite:
    """One client community: a workload plus its own cache policy."""

    name: str
    trace: PreparedTrace
    policy: CachePolicy


@dataclass
class FleetResult:
    """Aggregated outcome across every client site.

    Attributes:
        per_client: Each site's individual simulation result.
        total_bytes: Global WAN traffic (the sum — caches independent).
        sequence_bytes: Global traffic had no site cached anything.
    """

    per_client: Dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def total_bytes(self) -> RawBytes:
        """Global WAN bytes, in the typed unit every accounting surface
        uses (per-site totals are integral; the sum is restored to
        :class:`~repro.core.units.RawBytes` rather than left a float).
        """
        return raw_bytes(
            round(sum(r.total_bytes for r in self.per_client.values()))
        )

    @property
    def sequence_bytes(self) -> RawBytes:
        return raw_bytes(
            round(
                sum(r.sequence_bytes for r in self.per_client.values())
            )
        )

    @property
    def savings_factor(self) -> float:
        total = self.total_bytes
        if total == 0:
            return float("inf")
        return self.sequence_bytes / total

    @property
    def mean_hit_rate(self) -> float:
        if not self.per_client:
            return 0.0
        return sum(
            r.hit_rate for r in self.per_client.values()
        ) / len(self.per_client)

    @property
    def weighted_cost(self) -> WeightedCost:
        """Global link-weighted WAN cost across all sites."""
        return WeightedCost(
            sum(r.weighted_cost for r in self.per_client.values())
        )

    @property
    def peer_bytes(self) -> RawBytes:
        """Bytes shipped shard-to-shard over peer links (cooperative
        runs; zero for independent fleets)."""
        return raw_bytes(
            round(
                sum(
                    r.breakdown.peer_bytes
                    for r in self.per_client.values()
                )
            )
        )

    @property
    def peer_hits(self) -> int:
        """Object loads satisfied by a sibling shard."""
        return sum(r.peer_hits for r in self.per_client.values())

    def summary(self) -> Dict[str, object]:
        """Fleet-level aggregation snapshot."""
        return {
            "clients": len(self.per_client),
            "total_bytes": self.total_bytes,
            "sequence_bytes": self.sequence_bytes,
            "weighted_cost": self.weighted_cost,
            "peer_bytes": self.peer_bytes,
            "peer_hits": self.peer_hits,
            "mean_hit_rate": round(self.mean_hit_rate, 4),
            "savings_factor": (
                round(self.savings_factor, 2)
                if self.total_bytes
                else float("inf")
            ),
        }


def _run_site(
    task: Tuple[CompiledTrace, CachePolicy],
    instrumentation: Optional[Instrumentation],
    federation: Federation,
    granularity: str,
    policy_sees_weights: bool,
    record_series: Union[bool, str],
) -> SimulationResult:
    """One client site's replay in a pool worker."""
    compiled, policy = task
    simulator = Simulator(
        federation,
        granularity,
        policy_sees_weights,
        instrumentation=instrumentation,
    )
    return simulator.run(compiled, policy, record_series=record_series)


def simulate_fleet(
    federation: Federation,
    clients: Sequence[ClientSite],
    granularity: str = "table",
    policy_sees_weights: bool = True,
    record_series: Union[bool, str] = False,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    instrumentation: Optional[Instrumentation] = None,
    cooperative: bool = False,
    ring: Optional["ConsistentHashRing"] = None,
    ring_seed: int = 0,
    probe_all_siblings: bool = False,
    faults: Optional["FaultSchedule"] = None,
) -> FleetResult:
    """Run every client's workload through its own cache.

    By default caches are independent (no coordination — out of the
    paper's scope), so the simulation is exact per site and the global
    total is their sum.  With ``parallel=True`` each site replays in a
    separate worker process (falling back to serial when the platform
    cannot spawn a pool); note that the caller's ``client.policy``
    objects are then *not* mutated — per-site state lives in the
    returned results.

    With ``cooperative=True`` the sites become shards of one
    cooperative cache hierarchy (see :mod:`repro.fleet.cooperative`): a
    local miss probes the consistent-hash ``ring`` owner of each missed
    object (every sibling when ``probe_all_siblings``) and sibling hits
    ship over peer links instead of the backend WAN.  Cooperative
    replays are serial — sibling probes read live cache state — and an
    optional ``faults`` schedule keyed by *shard names* darkens
    siblings per tick.  A single-shard cooperative run is byte-identical
    to the independent path (golden equivalence, tested).

    Telemetry is never dropped: parallel workers record counters into
    their own sink and ship the snapshot back on each result, and when
    ``instrumentation`` is supplied those snapshots merge into it in
    client order (serial runs emit into it directly).
    """
    if not clients:
        raise CacheError("simulate_fleet needs at least one client")
    names = [client.name for client in clients]
    if len(set(names)) != len(names):
        raise CacheError("client names must be unique")

    if cooperative:
        # Local import: repro.fleet layers on repro.sim, not the other
        # way around, so the independent path never pays the import.
        from repro.fleet.cooperative import run_cooperative

        cooperative_outcomes = run_cooperative(
            federation,
            clients,
            granularity=granularity,
            policy_sees_weights=policy_sees_weights,
            record_series=record_series,
            instrumentation=instrumentation,
            ring=ring,
            ring_seed=ring_seed,
            probe_all_siblings=probe_all_siblings,
            faults=faults,
        )
        return _aggregate(clients, cooperative_outcomes, instrumentation)

    simulator = Simulator(
        federation,
        granularity,
        policy_sees_weights,
        instrumentation=instrumentation,
    )
    # Compile every client's stream once, here: pool workers receive
    # the pickle-cheap compiled form instead of re-attributing yields
    # per site, and a serial replay runs the same streams in place.
    compile_trace = simulator.pipeline.compile_trace
    tasks = [
        (compile_trace(client.trace), client.policy) for client in clients
    ]
    outcomes = run_in_pool(
        _run_site,
        tasks,
        (federation, granularity, policy_sees_weights, record_series),
        parallel,
        max_workers,
        instrumentation,
    )
    if outcomes is None:
        outcomes = [
            simulator.run(compiled, policy, record_series=record_series)
            for compiled, policy in tasks
        ]

    return _aggregate(clients, outcomes, instrumentation)


def _aggregate(
    clients: Sequence[ClientSite],
    outcomes: Sequence[SimulationResult],
    instrumentation: Optional[Instrumentation],
) -> FleetResult:
    """Assemble per-site results into the fleet view, in client order."""
    result = FleetResult()
    for client, outcome in zip(clients, outcomes):
        result.per_client[client.name] = outcome
    if instrumentation is not None:
        instrumentation.count("fleet.clients", len(clients))
        instrumentation.count("fleet.wan_bytes", result.total_bytes)
    return result
