"""Unit tests for the shared decision pipeline."""

import pytest

from repro.core.events import Decision
from repro.core.pipeline import (
    DecisionPipeline,
    ObjectCatalog,
    QueryAccounting,
    shared_catalog,
)
from repro.errors import CacheError
from repro.federation import Federation
from repro.workload.trace import PreparedQuery

from tests.conftest import build_catalog


def make_federation(weight=None):
    federation = Federation.single_site(build_catalog(), "sdss")
    if weight is not None:
        federation.network.set_link("sdss", weight)
    return federation


def prepared_query(index=0, yield_bytes=100, table_yields=None):
    return PreparedQuery(
        index=index,
        sql=f"q{index}",
        template="t",
        yield_bytes=yield_bytes,
        bypass_bytes=yield_bytes,
        table_yields=table_yields or {"PhotoObj": float(yield_bytes)},
        column_yields={"PhotoObj.objID": float(yield_bytes)},
        servers=("sdss",),
    )


class TestSharedCatalog:
    def test_one_catalog_per_federation(self):
        federation = make_federation()
        assert shared_catalog(federation) is shared_catalog(federation)

    def test_distinct_federations_get_distinct_catalogs(self):
        assert shared_catalog(make_federation()) is not shared_catalog(
            make_federation()
        )

    def test_pipeline_and_simulator_share_the_catalog(self):
        from repro.sim.simulator import Simulator

        federation = make_federation()
        pipeline = DecisionPipeline(federation)
        simulator = Simulator(federation)
        assert simulator.objects is pipeline.catalog

    def test_catalog_memoizes(self):
        federation = make_federation()
        catalog = ObjectCatalog(federation)
        assert catalog.size("PhotoObj") == catalog.size("PhotoObj")
        assert catalog.server("PhotoObj") == "sdss"
        assert catalog.fetch_cost("PhotoObj") == float(
            federation.fetch_cost("PhotoObj")
        )


class TestCostViews:
    def test_byhr_view_scales_costs_and_yields_by_link_weight(self):
        federation = make_federation(weight=3.0)
        pipeline = DecisionPipeline(
            federation, "table", policy_sees_weights=True
        )
        size = federation.object_size("PhotoObj")
        query = pipeline.build_query(
            0, {"PhotoObj": 120.0}, yield_bytes=120, bypass_bytes=120
        )
        (request,) = query.objects
        assert request.size == size
        assert request.fetch_cost == pytest.approx(size * 3.0)
        assert request.yield_bytes == pytest.approx(120.0 * 3.0)

    def test_byu_view_shows_raw_bytes(self):
        federation = make_federation(weight=3.0)
        pipeline = DecisionPipeline(
            federation, "table", policy_sees_weights=False
        )
        size = federation.object_size("PhotoObj")
        query = pipeline.build_query(
            0, {"PhotoObj": 120.0}, yield_bytes=120, bypass_bytes=120
        )
        (request,) = query.objects
        assert request.fetch_cost == float(size)
        assert request.yield_bytes == 120.0

    def test_requests_sorted_by_object_id(self):
        pipeline = DecisionPipeline(make_federation(), "table")
        query = pipeline.build_query(
            0,
            {"SpecObj": 10.0, "PhotoObj": 20.0},
            yield_bytes=30,
            bypass_bytes=30,
        )
        assert [r.object_id for r in query.objects] == [
            "PhotoObj", "SpecObj"
        ]

    def test_query_from_prepared_respects_granularity(self):
        pipeline = DecisionPipeline(make_federation(), "column")
        query = pipeline.query_from_prepared(prepared_query(), 7)
        assert query.index == 7
        assert [r.object_id for r in query.objects] == ["PhotoObj.objID"]

    def test_bad_granularity_rejected(self):
        with pytest.raises(CacheError):
            DecisionPipeline(make_federation(), "page")


class TestAccounting:
    def test_bypass_cost_no_servers_is_raw_bytes(self):
        pipeline = DecisionPipeline(make_federation(weight=2.0))
        assert pipeline.bypass_cost(100, servers=()) == 100.0

    def test_bypass_cost_single_server_uses_link(self):
        pipeline = DecisionPipeline(make_federation(weight=2.0))
        assert pipeline.bypass_cost(100, servers=("sdss",)) == 200.0

    def test_bypass_cost_multi_server_uses_mean_weight(self):
        from repro.federation import DatabaseServer
        from repro.sqlengine import (
            Catalog, Column, ColumnType, TableSchema,
        )

        federation = make_federation(weight=2.0)
        radio = Catalog("radio")
        table = radio.create_table(
            TableSchema("First", [Column("firstID", ColumnType.BIGINT)])
        )
        table.insert_many([[i] for i in range(3)])
        federation.add_server(
            DatabaseServer("first", radio), link_weight=4.0
        )
        pipeline = DecisionPipeline(federation)
        assert pipeline.bypass_cost(
            100, servers=("sdss", "first")
        ) == pytest.approx(100 * 3.0)

    def test_account_served_query_charges_loads_only(self):
        federation = make_federation(weight=2.0)
        pipeline = DecisionPipeline(federation)
        size = federation.object_size("PhotoObj")
        accounting = pipeline.account(
            Decision(served_from_cache=True, loads=["PhotoObj"]),
            bypass_bytes=500,
            servers=("sdss",),
        )
        assert accounting.load_bytes == size
        assert accounting.load_cost == pytest.approx(size * 2.0)
        assert accounting.bypass_bytes == 0
        assert accounting.bypass_cost == 0.0
        assert accounting.wan_bytes == size

    def test_account_bypassed_query_charges_bypass(self):
        pipeline = DecisionPipeline(make_federation())
        accounting = pipeline.account(
            Decision(served_from_cache=False),
            bypass_bytes=500,
            servers=("sdss",),
        )
        assert accounting.bypass_bytes == 500
        assert accounting.load_bytes == 0
        assert accounting.weighted_cost == 500.0

    def test_accounting_totals(self):
        accounting = QueryAccounting(
            load_bytes=10, load_cost=20.0, bypass_bytes=5, bypass_cost=7.5
        )
        assert accounting.wan_bytes == 15
        assert accounting.weighted_cost == 27.5


class TestSimulatorDelegation:
    def test_simulator_build_query_delegates_to_pipeline(self):
        from repro.sim.simulator import Simulator

        federation = make_federation(weight=2.0)
        simulator = Simulator(federation, "table")
        pipeline = DecisionPipeline(federation, "table")
        prepared = prepared_query()
        assert simulator.build_query(prepared, 3) == (
            pipeline.query_from_prepared(prepared, 3)
        )
