"""Unit tests for the trace-driven simulator's accounting."""

import pytest

from repro.core.pipeline import ObjectCatalog
from repro.core.policies.baselines import NoCachePolicy, StaticPolicy
from repro.core.policies.rate_profile import RateProfilePolicy
from repro.errors import CacheError
from repro.federation import Federation
from repro.sim.simulator import Simulator
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog


def prepared_query(index, sql, yield_bytes, table_yields, servers=("sdss",)):
    return PreparedQuery(
        index=index,
        sql=sql,
        template="t",
        yield_bytes=yield_bytes,
        bypass_bytes=yield_bytes,
        table_yields=table_yields,
        column_yields={},
        servers=servers,
    )


@pytest.fixture
def federation():
    return Federation.single_site(build_catalog(), "sdss")


@pytest.fixture
def trace():
    # Three queries against PhotoObj yielding 100 B each, one against
    # SpecObj yielding 40 B.
    queries = [
        prepared_query(0, "q0", 100, {"PhotoObj": 100.0}),
        prepared_query(1, "q1", 100, {"PhotoObj": 100.0}),
        prepared_query(2, "q2", 40, {"SpecObj": 40.0}),
        prepared_query(3, "q3", 100, {"PhotoObj": 100.0}),
    ]
    return PreparedTrace("unit", queries)


class TestObjectCatalog:
    def test_sizes_memoized(self, federation):
        objects = ObjectCatalog(federation)
        assert objects.size("PhotoObj") == federation.object_size("PhotoObj")
        assert objects.size("PhotoObj") == objects.size("PhotoObj")

    def test_fetch_cost_uses_network(self, federation):
        federation.network.set_link("sdss", 2.0)
        objects = ObjectCatalog(federation)
        assert objects.fetch_cost("SpecObj") == 2.0 * federation.object_size(
            "SpecObj"
        )

    def test_server_lookup(self, federation):
        assert ObjectCatalog(federation).server("PhotoObj") == "sdss"


class TestSimulatorAccounting:
    def test_no_cache_pays_sequence_cost(self, federation, trace):
        simulator = Simulator(federation, "table")
        result = simulator.run(trace, NoCachePolicy())
        assert result.breakdown.bypass_bytes == 340
        assert result.breakdown.load_bytes == 0
        assert result.total_bytes == 340
        assert result.sequence_bytes == 340
        assert result.hit_rate == 0.0

    def test_static_full_coverage_is_free(self, federation, trace):
        photo = federation.object_size("PhotoObj")
        spec = federation.object_size("SpecObj")
        policy = StaticPolicy(
            photo + spec, {"PhotoObj": photo, "SpecObj": spec}
        )
        result = Simulator(federation, "table").run(trace, policy)
        assert result.total_bytes == 0
        assert result.hit_rate == 1.0

    def test_partial_static_coverage(self, federation, trace):
        photo = federation.object_size("PhotoObj")
        policy = StaticPolicy(photo, {"PhotoObj": photo})
        result = Simulator(federation, "table").run(trace, policy)
        # Only the SpecObj query (40 B) bypasses.
        assert result.total_bytes == 40
        assert result.served_queries == 3

    def test_loads_charged_at_object_size(self, federation):
        # High-yield queries so Rate-Profile's LAR goes positive fast:
        # PhotoObj is 880 B, each query yields 600 B against it.
        queries = [
            prepared_query(i, f"q{i}", 600, {"PhotoObj": 600.0})
            for i in range(4)
        ]
        trace = PreparedTrace("hot", queries)
        policy = RateProfilePolicy(capacity_bytes=10**6)
        result = Simulator(federation, "table").run(trace, policy)
        assert result.loads == 1
        assert result.breakdown.load_bytes == federation.object_size(
            "PhotoObj"
        )
        # Queries after the load are served from cache.
        assert result.served_queries >= 2

    def test_cumulative_series_monotonic(self, federation, trace):
        result = Simulator(federation, "table").run(trace, NoCachePolicy())
        series = result.cumulative_bytes
        assert len(series) == len(trace)
        assert all(a <= b for a, b in zip(series, series[1:]))
        assert series[-1] == result.total_bytes

    def test_series_disabled(self, federation, trace):
        result = Simulator(federation, "table").run(
            trace, NoCachePolicy(), record_series=False
        )
        assert result.cumulative_bytes == []

    def test_weighted_cost_with_links(self, federation, trace):
        federation.network.set_link("sdss", 3.0)
        result = Simulator(federation, "table").run(trace, NoCachePolicy())
        assert result.weighted_cost == pytest.approx(3.0 * 340)
        assert result.total_bytes == 340  # raw bytes unaffected

    def test_bad_granularity_rejected(self, federation):
        with pytest.raises(CacheError):
            Simulator(federation, "page")

    def test_savings_factor(self, federation, trace):
        photo = federation.object_size("PhotoObj")
        spec = federation.object_size("SpecObj")
        policy = StaticPolicy(
            photo + spec, {"PhotoObj": photo, "SpecObj": spec}
        )
        result = Simulator(federation, "table").run(trace, policy)
        assert result.savings_factor == float("inf")

    def test_summary_fields(self, federation, trace):
        result = Simulator(federation, "table").run(trace, NoCachePolicy())
        summary = result.summary()
        assert summary["policy"] == "no-cache"
        assert summary["total_bytes"] == 340
        assert summary["queries"] == 4


class TestBuildQuery:
    def test_objects_carry_attribution(self, federation, trace):
        simulator = Simulator(federation, "table")
        event = simulator.build_query(trace.queries[0], 0)
        assert len(event.objects) == 1
        request = event.objects[0]
        assert request.object_id == "PhotoObj"
        assert request.yield_bytes == 100.0
        assert request.size == federation.object_size("PhotoObj")
