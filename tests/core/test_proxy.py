"""Tests for the live bypass-yield proxy (online query path)."""

import pytest

from repro.core.instrumentation import Instrumentation
from repro.core.policies.rate_profile import RateProfilePolicy
from repro.core.policies.baselines import NoCachePolicy
from repro.core.proxy import BypassYieldProxy
from repro.errors import CacheError
from repro.federation import Federation
from repro.obs.metrics import MetricsProbe, MetricsRegistry
from repro.sim.runner import run_single
from repro.workload.generator import TraceConfig, generate_trace
from repro.workload.prepare import prepare_trace
from repro.workload.sdss_schema import TINY, build_sdss_catalog

from tests.conftest import build_catalog

HOT_QUERY = "SELECT objID, ra, dec, modelMag_g FROM PhotoObj WHERE ra >= 0"


@pytest.fixture
def proxy():
    federation = Federation.single_site(build_catalog(), "sdss")
    policy = RateProfilePolicy(
        capacity_bytes=federation.total_database_bytes()
    )
    return BypassYieldProxy(federation, policy, granularity="table")


class TestQueryPath:
    def test_first_query_bypasses(self, proxy):
        response = proxy.query(HOT_QUERY)
        assert not response.served_from_cache
        assert response.wan_bytes == response.result.byte_size
        assert proxy.ledger.bypass_bytes == response.result.byte_size

    def test_hot_object_gets_loaded_then_served(self, proxy):
        first = proxy.query(HOT_QUERY)
        second = proxy.query(HOT_QUERY)
        assert second.loads == ["PhotoObj"]
        assert second.served_from_cache
        third = proxy.query(HOT_QUERY)
        assert third.served_from_cache
        assert third.wan_bytes == 0
        # LAN carries the served results; WAN carried bypass + one load.
        photo = proxy.federation.object_size("PhotoObj")
        assert proxy.ledger.load_bytes == photo
        assert proxy.ledger.cache_bytes == (
            second.result.byte_size + third.result.byte_size
        )

    def test_result_identical_on_both_paths(self, proxy):
        first = proxy.query(HOT_QUERY)
        proxy.query(HOT_QUERY)
        served = proxy.query(HOT_QUERY)
        assert served.result.rows == first.result.rows

    def test_application_bytes_invariant(self, proxy):
        """D_A = D_S + D_C equals the total yield regardless of path."""
        queries = [
            HOT_QUERY,
            "SELECT z FROM SpecObj WHERE z > 0.02",
            HOT_QUERY,
            HOT_QUERY,
        ]
        total_yield = 0
        for sql in queries:
            total_yield += proxy.query(sql).result.byte_size
        assert proxy.ledger.application_bytes == total_yield

    def test_stats_snapshot(self, proxy):
        proxy.query(HOT_QUERY)
        stats = proxy.stats()
        assert stats["queries"] == 1
        assert stats["wan_bytes"] == proxy.ledger.wan_bytes
        assert stats["cache_capacity_bytes"] == proxy.policy.capacity_bytes

    def test_invalidate_drops_and_notifies(self, proxy):
        proxy.query(HOT_QUERY)
        proxy.query(HOT_QUERY)  # loads PhotoObj
        dropped = proxy.invalidate(["PhotoObj", "SpecObj"])
        assert dropped == ["PhotoObj"]
        response = proxy.query(HOT_QUERY)
        assert not response.served_from_cache or response.loads

    def test_bad_granularity_rejected(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        with pytest.raises(CacheError):
            BypassYieldProxy(
                federation, NoCachePolicy(), granularity="page"
            )


class TestColumnGranularity:
    def test_loads_individual_columns(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        policy = RateProfilePolicy(
            capacity_bytes=federation.total_database_bytes()
        )
        proxy = BypassYieldProxy(federation, policy, granularity="column")
        sql = "SELECT objID, ra FROM PhotoObj WHERE ra >= 0"
        proxy.query(sql)
        response = proxy.query(sql)
        assert set(response.loads) == {"PhotoObj.objID", "PhotoObj.ra"}
        assert response.served_from_cache


class TestProxyMatchesSimulator:
    def test_online_equals_offline_accounting(self):
        """The live proxy and the prepared-trace simulator are one
        algorithm: their decision events are equal field for field
        (bar ``source``) for table and column objects, fault-free and
        behind flap, brownout and outage schedules."""
        from dataclasses import replace

        from repro.core.instrumentation import Instrumentation
        from repro.faults import FaultEngine, FaultSchedule
        from repro.faults.transport import ResilientTransport
        from repro.federation import Mediator

        from tests.core.proxy_net import SCHEDULES

        trace = generate_trace(
            TraceConfig(num_queries=150, flavor="edr", seed=321), TINY
        )
        federation_a = Federation.single_site(
            build_sdss_catalog(TINY, seed=5), "sdss"
        )
        prepared = prepare_trace(trace, Mediator(federation_a))
        capacity = federation_a.total_database_bytes() // 3
        cases = [("fault-free", None)] + [
            (name, FaultSchedule(seed=11, windows=windows))
            for name, windows in sorted(SCHEDULES.items())
        ]
        for granularity in ("table", "column"):
            for name, faults in cases:
                # Offline: prepare, then simulate.
                offline_sink = Instrumentation()
                offline = run_single(
                    prepared, federation_a, "rate-profile", capacity,
                    granularity, instrumentation=offline_sink,
                    faults=faults,
                )
                # Online: fresh federation and proxy, same queries.
                online_sink = Instrumentation()
                proxy = BypassYieldProxy(
                    Federation.single_site(
                        build_sdss_catalog(TINY, seed=5), "sdss"
                    ),
                    RateProfilePolicy(capacity_bytes=capacity),
                    granularity=granularity,
                    instrumentation=online_sink,
                    transport=(
                        None if faults is None
                        else ResilientTransport(FaultEngine(faults))
                    ),
                )
                for record in trace:
                    proxy.query(record.sql)

                case = f"{granularity}/{name}"
                online = [replace(e, source="") for e in online_sink.events]
                want = [replace(e, source="") for e in offline_sink.events]
                assert len(online) == len(want) == len(trace), case
                for got, expected in zip(online, want):
                    assert got == expected, (case, got.index)
                assert proxy.ledger.wan_bytes == offline.total_bytes, case
                assert proxy.stats()["queries"] == offline.queries, case


class TestMultiServerProxy:
    def test_cross_server_bypass_decomposes(self):
        from repro.federation import DatabaseServer
        from repro.sqlengine import Catalog, Column, ColumnType, TableSchema

        federation = Federation.single_site(build_catalog(), "sdss")
        radio = Catalog("radio")
        table = radio.create_table(
            TableSchema(
                "First",
                [Column("firstID", ColumnType.BIGINT),
                 Column("objID", ColumnType.BIGINT),
                 Column("peak", ColumnType.FLOAT)],
            )
        )
        table.insert_many([[100 + i, i + 1, float(i)] for i in range(5)])
        federation.add_server(DatabaseServer("first", radio))

        proxy = BypassYieldProxy(
            federation,
            NoCachePolicy(),
            granularity="table",
        )
        response = proxy.query(
            "SELECT p.objID, f.peak FROM PhotoObj p, First f "
            "WHERE p.objID = f.objID AND f.peak > 1.5"
        )
        assert not response.served_from_cache
        # Decomposed shipping, not the final-result size.
        assert set(proxy.ledger.per_server_bypass) == {"sdss", "first"}
        assert response.wan_bytes == proxy.ledger.bypass_bytes


class TestResilientProxy:
    """The availability-aware online path behind a faulted transport."""

    @staticmethod
    def _make_proxy(windows=(), seed=11, policy_cls=RateProfilePolicy,
                    instrumentation=None):
        from repro.faults import FaultEngine, FaultSchedule
        from repro.faults.transport import ResilientTransport

        federation = Federation.single_site(build_catalog(), "sdss")
        policy = policy_cls(
            capacity_bytes=federation.total_database_bytes()
        )
        transport = ResilientTransport(
            FaultEngine(FaultSchedule(seed=seed, windows=tuple(windows)))
        )
        return BypassYieldProxy(
            federation, policy, granularity="table", transport=transport,
            instrumentation=instrumentation,
        )

    def test_empty_schedule_is_identity(self, proxy):
        resilient = self._make_proxy()
        for _ in range(6):
            plain = proxy.query(HOT_QUERY)
            faulted = resilient.query(HOT_QUERY)
            assert faulted.served_from_cache == plain.served_from_cache
            assert faulted.wan_bytes == plain.wan_bytes
            assert faulted.retries == 0
            assert not faulted.failed_loads
            assert faulted.result.rows == plain.result.rows
        plain_stats = proxy.stats()
        faulted_stats = resilient.stats()
        faulted_stats.pop("transport")
        assert faulted_stats == plain_stats

    def test_outage_makes_uncached_query_unavailable(self):
        from repro.faults import FaultWindow

        resilient = self._make_proxy(
            windows=(
                FaultWindow(kind="outage", server="sdss", start=0,
                            end=1000),
            ),
            policy_cls=NoCachePolicy,
        )
        response = resilient.query(HOT_QUERY)
        assert response.outcome == "unavailable"
        assert response.result is None
        assert not response.served_from_cache

    def test_cache_fallback_when_backend_goes_dark(self):
        from repro.faults import FaultWindow

        # Queries 0-2 run fault-free and pull PhotoObj into the cache;
        # from tick 3 on the backend is dark, but residents still serve.
        resilient = self._make_proxy(
            windows=(
                FaultWindow(kind="outage", server="sdss", start=3,
                            end=1000),
            ),
        )
        warm = [resilient.query(HOT_QUERY) for _ in range(3)]
        assert any(r.served_from_cache for r in warm)
        dark = resilient.query(HOT_QUERY)
        assert dark.outcome == "served"
        assert dark.result is not None
        assert dark.result.rows == warm[-1].result.rows

    def test_failed_load_is_neither_a_serve_nor_a_load(self):
        """The backend dies before PhotoObj is loaded: the serve the
        policy wanted degrades to "unavailable", and the response says
        so — no serve, no load, one failed load."""
        from repro.faults import FaultWindow

        resilient = self._make_proxy(
            windows=(
                FaultWindow(kind="outage", server="sdss", start=1,
                            end=1000),
            ),
        )
        responses = [resilient.query(HOT_QUERY) for _ in range(5)]
        failed = responses[1]
        assert failed.failed_loads == ["PhotoObj"]
        assert failed.outcome == "unavailable"
        assert failed.result is None
        assert not failed.served_from_cache
        assert failed.loads == []
        for response in responses:
            assert response.served_from_cache == (
                response.outcome == "served"
            )
            assert not set(response.loads) & set(response.failed_loads)

    def test_resident_fallback_is_a_serve(self):
        """A policy free to bypass resident objects bypasses into a dark
        backend; the cache answers, and the response says it did."""
        from repro.core.events import Decision
        from repro.faults import FaultWindow

        class BypassResidents(RateProfilePolicy):
            def decide(self, query):
                if all(
                    request.object_id in self.store
                    for request in query.objects
                ):
                    return Decision(served_from_cache=False)
                return super().decide(query)

        resilient = self._make_proxy(
            windows=(
                FaultWindow(kind="outage", server="sdss", start=2,
                            end=1000),
            ),
            policy_cls=BypassResidents,
        )
        warm = [resilient.query(HOT_QUERY) for _ in range(2)]
        assert warm[1].loads == ["PhotoObj"]
        fallback = resilient.query(HOT_QUERY)
        assert fallback.outcome == "served"
        assert fallback.served_from_cache
        assert fallback.result.rows == warm[0].result.rows
        assert fallback.wan_bytes == 0

    def test_retry_waste_lands_in_stats(self):
        from repro.faults import FaultWindow

        resilient = self._make_proxy(
            windows=(
                FaultWindow(
                    kind="brownout", server="sdss", start=0, end=1000,
                    failure_rate=0.6,
                ),
            ),
            seed=3,
            policy_cls=NoCachePolicy,
        )
        for _ in range(20):
            resilient.query(HOT_QUERY)
        stats = resilient.stats()
        assert stats["retry_bytes"] > 0
        assert stats["transport"]["retries"] > 0
        assert stats["transport"]["retry_bytes"] == stats["retry_bytes"]

    def test_transport_counters_reach_metrics_registry(self):
        from repro.faults import FaultWindow

        instrumentation = Instrumentation(max_events=0)
        resilient = self._make_proxy(
            windows=(
                FaultWindow(kind="outage", server="sdss", start=0,
                            end=1000),
            ),
            policy_cls=NoCachePolicy,
            instrumentation=instrumentation,
        )
        registry = MetricsRegistry()
        instrumentation.add_probe(MetricsProbe(registry))
        for _ in range(8):
            resilient.query(HOT_QUERY)
        scraped = registry.render_prometheus()
        requests = instrumentation.counters["transport.requests"]
        assert f"repro_transport_requests_total {requests:g}\n" in scraped
        assert "repro_outcome_unavailable_total 8" in scraped


class TestPeerLookup:
    """The fleet hook: loads sourced from a sibling proxy ride the
    peer link instead of the backend WAN."""

    def _proxy(self, peer_lookup):
        federation = Federation.single_site(build_catalog(), "sdss")
        policy = RateProfilePolicy(
            capacity_bytes=federation.total_database_bytes()
        )
        return BypassYieldProxy(
            federation, policy, granularity="table",
            peer_lookup=peer_lookup,
        )

    def test_peer_load_skips_the_backend(self):
        proxy = self._proxy(lambda object_id: "sibling")
        proxy.query(HOT_QUERY)
        loaded = proxy.query(HOT_QUERY)
        assert loaded.loads == ["PhotoObj"]
        photo = proxy.federation.object_size("PhotoObj")
        assert proxy.ledger.peer_bytes == photo
        assert proxy.ledger.load_bytes == 0
        assert proxy.ledger.per_server_peer == {"sibling": photo}
        # Peer transfers ride the discounted link class.
        assert proxy.ledger.peer_cost == (
            proxy.federation.network.peer_cost(photo)
        )
        assert proxy.stats()["peer_bytes"] == photo

    def test_no_provider_falls_back_to_backend(self):
        proxy = self._proxy(lambda object_id: None)
        proxy.query(HOT_QUERY)
        proxy.query(HOT_QUERY)
        photo = proxy.federation.object_size("PhotoObj")
        assert proxy.ledger.load_bytes == photo
        assert proxy.ledger.peer_bytes == 0

    def test_peer_bytes_stay_off_the_wan(self):
        proxy = self._proxy(lambda object_id: "sibling")
        first = proxy.query(HOT_QUERY)
        loaded = proxy.query(HOT_QUERY)
        # The second query loads from a sibling and serves the result
        # from cache, so the WAN carried only the first bypass.
        assert loaded.served_from_cache
        assert proxy.ledger.wan_bytes == first.result.byte_size
        assert proxy.ledger.peer_bytes > 0
