"""Cooperative fleet replay: equivalence, savings, faults, units."""

import pytest

from repro.core.instrumentation import Instrumentation
from repro.core.units import RawBytes
from repro.errors import CacheError
from repro.faults import FaultSchedule, FaultWindow
from repro.federation import Federation
from repro.fleet import ConsistentHashRing, split_trace
from repro.sim.multi import ClientSite, simulate_fleet
from repro.sim.runner import build_fleet, build_policy
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog


def prepared_trace(name, tables, size=100):
    queries = [
        PreparedQuery(
            index=i,
            sql=f"{name}-q{i}",
            template="t",
            yield_bytes=int(size),
            bypass_bytes=int(size),
            table_yields={table: float(size)},
            column_yields={},
            servers=("sdss",),
        )
        for i, table in enumerate(tables)
    ]
    return PreparedTrace(name, queries)


@pytest.fixture
def federation():
    return Federation.single_site(build_catalog(), "sdss")


def lru_client(name, trace, federation, capacity=10**9):
    policy = build_policy("lru", capacity, trace, federation, "table")
    return ClientSite(name, trace, policy)


def alternating_fleet(federation, shards=4, repeats=20):
    """Shards drawing from the same two-table universe: every even
    shard touches only PhotoObj, every odd one only SpecObj, so each
    object is loaded by multiple shards — the overlapping workload
    where cooperation pays."""
    tables = ["PhotoObj", "SpecObj"] * repeats
    trace = prepared_trace("overlap", tables)
    return [
        lru_client(f"s{i}", shard_trace, federation)
        for i, shard_trace in enumerate(
            split_trace(trace, shards, prefix="s")
        )
    ]


class TestSplitTrace:
    def test_round_robin(self):
        trace = prepared_trace("t", ["PhotoObj"] * 5)
        parts = split_trace(trace, 2)
        assert [p.name for p in parts] == ["t.shard0", "t.shard1"]
        assert [len(p) for p in parts] == [3, 2]
        assert [q.sql for q in parts[0]] == ["t-q0", "t-q2", "t-q4"]
        assert [q.sql for q in parts[1]] == ["t-q1", "t-q3"]

    def test_bad_shard_count_rejected(self):
        trace = prepared_trace("t", ["PhotoObj"])
        with pytest.raises(CacheError):
            split_trace(trace, 0)


class TestGoldenEquivalence:
    def test_single_shard_cooperative_is_byte_identical(self, federation):
        """One shard has no siblings: cooperative mode must reproduce
        the independent replay exactly, byte for byte."""
        tables = ["PhotoObj", "SpecObj"] * 10

        def fleet():
            return [
                lru_client(
                    "solo", prepared_trace("t", tables), federation
                )
            ]

        plain = simulate_fleet(federation, fleet(), record_series=True)
        coop = simulate_fleet(
            federation, fleet(), record_series=True, cooperative=True
        )
        left = plain.per_client["solo"]
        right = coop.per_client["solo"]
        assert left.summary() == right.summary()
        assert left.breakdown.as_gb() == right.breakdown.as_gb()
        assert left.cumulative_bytes == right.cumulative_bytes
        assert plain.summary() == coop.summary()

    def test_cooperative_makes_the_same_decisions(self, federation):
        """Policies are cooperation-blind: per-shard hit rates and
        served counts match the independent replay exactly — only the
        byte sourcing changes."""
        independent = simulate_fleet(
            federation, alternating_fleet(federation)
        )
        cooperative = simulate_fleet(
            federation,
            alternating_fleet(federation),
            cooperative=True,
            probe_all_siblings=True,
        )
        for name, left in independent.per_client.items():
            right = cooperative.per_client[name]
            assert left.hit_rate == right.hit_rate
            assert left.served_queries == right.served_queries
            assert left.loads == right.loads


#: Fleet sizes the savings claim is checked at; every shard sees at
#: least two queries, so each object is loaded by several shards.
FLEET_SIZES = (4, 16, 64)


class TestCooperativeSavings:
    def test_wan_strictly_below_independent(self, federation):
        for shards in FLEET_SIZES:
            repeats = max(20, shards)
            independent = simulate_fleet(
                federation, alternating_fleet(federation, shards, repeats)
            )
            cooperative = simulate_fleet(
                federation,
                alternating_fleet(federation, shards, repeats),
                cooperative=True,
                probe_all_siblings=True,
            )
            assert cooperative.peer_hits > 0, shards
            assert cooperative.total_bytes < independent.total_bytes
            # Identical decisions mean every peer hit replaces an equal
            # backend load: the WAN saving IS the peer traffic.
            assert (
                independent.total_bytes - cooperative.total_bytes
                == cooperative.peer_bytes
            )
            # Peer links are cheaper than the backend WAN, so the
            # weighted cost drops too (not just raw bytes moved off the
            # backbone).
            assert cooperative.weighted_cost < independent.weighted_cost
            assert independent.peer_bytes == 0
            assert independent.peer_hits == 0

    def test_probe_all_siblings_finds_at_least_owner_hits(
        self, federation
    ):
        owner_only = simulate_fleet(
            federation,
            alternating_fleet(federation),
            cooperative=True,
        )
        everyone = simulate_fleet(
            federation,
            alternating_fleet(federation),
            cooperative=True,
            probe_all_siblings=True,
        )
        assert everyone.peer_hits >= owner_only.peer_hits
        assert everyone.total_bytes <= owner_only.total_bytes

    def test_explicit_ring_must_cover_every_shard(self, federation):
        ring = ConsistentHashRing(["s0", "s1"])
        with pytest.raises(CacheError):
            simulate_fleet(
                federation,
                alternating_fleet(federation, shards=4),
                cooperative=True,
                ring=ring,
            )

    def test_cooperative_run_is_deterministic(self, federation):
        first = simulate_fleet(
            federation,
            alternating_fleet(federation),
            cooperative=True,
            probe_all_siblings=True,
        )
        second = simulate_fleet(
            federation,
            alternating_fleet(federation),
            cooperative=True,
            probe_all_siblings=True,
        )
        assert first.summary() == second.summary()


class TestShardFaults:
    def test_down_shards_cannot_serve_peers(self, federation):
        """An outage keyed by shard name darkens that shard as a peer
        provider: with every early loader down, cooperation degrades
        exactly to the independent totals."""
        clients = alternating_fleet(federation)
        ticks = max(len(c.trace) for c in clients)
        schedule = FaultSchedule(
            seed=1,
            windows=(
                FaultWindow("outage", "s0", 0, ticks),
                FaultWindow("outage", "s1", 0, ticks),
            ),
        )
        independent = simulate_fleet(
            federation, alternating_fleet(federation)
        )
        darkened = simulate_fleet(
            federation,
            clients,
            cooperative=True,
            probe_all_siblings=True,
            faults=schedule,
        )
        assert darkened.peer_hits == 0
        assert darkened.peer_bytes == 0
        assert darkened.total_bytes == independent.total_bytes


class TestAccountingSurfaces:
    def test_fleet_totals_are_typed_units(self, federation):
        result = simulate_fleet(
            federation,
            alternating_fleet(federation),
            cooperative=True,
            probe_all_siblings=True,
        )
        assert isinstance(result.total_bytes, int)
        assert isinstance(result.sequence_bytes, int)
        assert isinstance(result.peer_bytes, int)
        assert result.total_bytes == RawBytes(result.total_bytes)

    def test_summary_carries_peer_surfaces(self, federation):
        result = simulate_fleet(
            federation,
            alternating_fleet(federation),
            cooperative=True,
            probe_all_siblings=True,
        )
        summary = result.summary()
        assert summary["peer_bytes"] == result.peer_bytes
        assert summary["peer_hits"] == result.peer_hits
        site = next(iter(result.per_client.values())).summary()
        assert "peer_bytes" in site
        assert "peer_hits" in site

    def test_fleet_counters_and_shard_tags(self, federation):
        sink = Instrumentation()
        result = simulate_fleet(
            federation,
            alternating_fleet(federation),
            cooperative=True,
            probe_all_siblings=True,
            instrumentation=sink,
        )
        assert sink.counters["fleet.clients"] == 4
        assert sink.counters["fleet.peer_hits"] == result.peer_hits
        assert sink.counters["fleet.peer_bytes"] == result.peer_bytes
        for name in ("s0", "s1", "s2", "s3"):
            assert sink.counters[f"fleet.shard.{name}.decisions"] > 0

    def test_build_fleet_splits_budget_and_workload(self, federation):
        trace = prepared_trace("t", ["PhotoObj", "SpecObj"] * 6)
        clients = build_fleet(
            trace, 3, "lru", 3000, federation, "table"
        )
        assert [c.name for c in clients] == [
            "shard0", "shard1", "shard2"
        ]
        assert sum(len(c.trace) for c in clients) == len(trace)
        assert all(c.policy.capacity_bytes == 3000 for c in clients)
