"""Unit tests for the mediator: evaluation, bypass, decomposition."""

import random

import pytest

from repro.core.yield_model import ExactYieldSource
from repro.federation import DatabaseServer, Federation, Mediator
from repro.sqlengine import Catalog, Column, ColumnType, TableSchema
from repro.workload.sdss_schema import (
    TINY,
    build_first_catalog,
    build_sdss_catalog,
)
from repro.workload.templates import TEMPLATES, RegionCursor

from tests.conftest import build_catalog


def radio_catalog():
    catalog = Catalog("radio")
    table = catalog.create_table(
        TableSchema(
            "First",
            [
                Column("firstID", ColumnType.BIGINT),
                Column("objID", ColumnType.BIGINT),
                Column("peak", ColumnType.FLOAT),
            ],
        )
    )
    # Joins objIDs 1..5 of the SDSS catalog.
    table.insert_many([[100 + i, i + 1, float(i)] for i in range(5)])
    return catalog


@pytest.fixture
def two_site_mediator():
    federation = Federation.single_site(build_catalog(), "sdss")
    federation.add_server(DatabaseServer("first", radio_catalog()))
    return Mediator(federation)


class TestEvaluate:
    def test_evaluate_charges_nothing(self, mediator):
        result = mediator.evaluate("SELECT objID FROM PhotoObj")
        assert result.row_count == 20
        assert mediator.ledger.wan_bytes == 0

    def test_plan_cache_reuses_plans(self, mediator):
        first = mediator.plan("SELECT objID FROM PhotoObj")
        second = mediator.plan("SELECT objID FROM PhotoObj")
        assert first is second


class TestBypassSingleServer:
    def test_bypass_charges_result_bytes(self, mediator):
        outcome = mediator.bypass("SELECT objID, ra FROM PhotoObj")
        expected = outcome.result.byte_size
        assert outcome.wan_bytes == expected
        assert outcome.per_server_bytes == {"sdss": expected}
        assert mediator.ledger.bypass_bytes == expected

    def test_bypass_accumulates(self, mediator):
        mediator.bypass("SELECT objID FROM PhotoObj")
        mediator.bypass("SELECT objID FROM PhotoObj")
        assert mediator.ledger.bypass_bytes == 2 * 20 * 8

    def test_servers_for_plan(self, mediator):
        plan = mediator.plan(
            "SELECT p.objID FROM PhotoObj p, SpecObj s "
            "WHERE p.objID = s.objID"
        )
        assert mediator.servers_for_plan(plan) == ("sdss",)


class TestBypassMultiServer:
    def test_cross_server_join_decomposed(self, two_site_mediator):
        mediator = two_site_mediator
        outcome = mediator.bypass(
            "SELECT p.objID, p.ra, f.peak FROM PhotoObj p, First f "
            "WHERE p.objID = f.objID AND f.peak > 1.5"
        )
        assert set(outcome.per_server_bytes) == {"sdss", "first"}
        # The radio side ships (objID, peak) for rows passing peak > 1.5:
        # peaks 2.0, 3.0, 4.0 -> 3 rows x 16 bytes.
        assert outcome.per_server_bytes["first"] == 3 * 16
        # The photo side ships (objID, ra) for all 20 rows (no local
        # predicate on PhotoObj).
        assert outcome.per_server_bytes["sdss"] == 20 * 16
        assert outcome.wan_bytes == 3 * 16 + 20 * 16

    def test_decomposition_applies_local_filters(self, two_site_mediator):
        mediator = two_site_mediator
        outcome = mediator.bypass(
            "SELECT p.objID, f.peak FROM PhotoObj p, First f "
            "WHERE p.objID = f.objID AND p.ra < 25 AND f.peak > 0.5"
        )
        # PhotoObj local filter ra < 25 keeps objID 1..3 -> 3 rows x 8 B
        # (only objID needed: output + join key).
        assert outcome.per_server_bytes["sdss"] == 3 * 8
        # First keeps peaks 1..4 -> 4 rows x (objID + peak).
        assert outcome.per_server_bytes["first"] == 4 * 16

    def test_final_result_correct(self, two_site_mediator):
        outcome = two_site_mediator.bypass(
            "SELECT p.objID, f.peak FROM PhotoObj p, First f "
            "WHERE p.objID = f.objID AND f.peak > 1.5"
        )
        assert sorted(outcome.result.rows) == [
            (3, 2.0), (4, 3.0), (5, 4.0),
        ]

    def test_ledger_splits_by_server(self, two_site_mediator):
        mediator = two_site_mediator
        mediator.bypass(
            "SELECT p.objID, f.peak FROM PhotoObj p, First f "
            "WHERE p.objID = f.objID"
        )
        assert set(mediator.ledger.per_server_bypass) == {"sdss", "first"}


    def test_subplans_drop_the_statement_tail(self, two_site_mediator):
        # DISTINCT, ORDER BY, LIMIT, GROUP BY and HAVING run at the
        # mediator after the join: each server ships its filtered
        # partial whole.
        mediator = two_site_mediator
        outcome = mediator.bypass(
            "SELECT DISTINCT p.type, f.peak FROM PhotoObj p, First f "
            "WHERE p.objID = f.objID AND f.peak > 0.5 "
            "ORDER BY f.peak DESC LIMIT 2"
        )
        assert outcome.per_server_bytes == {"sdss": 240, "first": 64}
        assert outcome.result.rows == [(1, 4.0), (0, 3.0)]
        outcome = mediator.bypass(
            "SELECT p.type, COUNT(*) FROM PhotoObj p, First f "
            "WHERE p.objID = f.objID GROUP BY p.type HAVING COUNT(*) > 1"
        )
        assert outcome.per_server_bytes == {"sdss": 240, "first": 40}
        assert outcome.result.rows == [(0, 2), (1, 2)]


#: ``first_match`` (``PhotoObj p, First f``, two servers) drawn six times
#: per seed on the ``tiny`` profile, recorded when each server's subplan
#: was projected from built rows: per query (yield, decomposed bypass
#: bytes, bytes shipped by ``first``) — ``sdss`` always ships its 400
#: unfiltered (objID, ra, dec) rows, 9 600 bytes — then ``first``'s
#: ``bytes_shipped`` after measuring and bypassing every query.
FIRST_MATCH_RECORDED = {
    7: (
        [
            (1344, 10272, 672), (1792, 10496, 896), (1440, 10320, 720),
            (1600, 10400, 800), (1792, 10496, 896), (1504, 10352, 752),
        ],
        9472,
    ),
    11: (
        [
            (864, 10032, 432), (1504, 10352, 752), (1504, 10352, 752),
            (1440, 10320, 720), (1696, 10448, 848), (1504, 10352, 752),
        ],
        8512,
    ),
}


class TestFirstMatchDecomposition:
    @pytest.mark.parametrize("seed", sorted(FIRST_MATCH_RECORDED))
    def test_shipped_bytes_are_the_recorded_ones(self, seed):
        recorded, first_shipped = FIRST_MATCH_RECORDED[seed]
        federation = Federation.single_site(
            build_sdss_catalog(TINY), "sdss"
        )
        federation.add_server(
            DatabaseServer("first", build_first_catalog(TINY))
        )
        mediator = Mediator(federation)
        source = ExactYieldSource(mediator)
        rng = random.Random(seed)
        cursor = RegionCursor(rng)
        for yield_bytes, bypass_bytes, first_bytes in recorded:
            sql = TEMPLATES["first_match"].build(rng, cursor, TINY)
            plan = mediator.plan(sql)
            servers = mediator.servers_for_plan(plan)
            assert servers == ("sdss", "first")
            # Measuring the decomposition leaves the ledger as it was.
            before = vars(mediator.ledger.snapshot())
            measured = source.measure(sql, plan, servers)
            assert vars(mediator.ledger.snapshot()) == before
            assert measured.yield_bytes == yield_bytes
            assert measured.bypass_bytes == bypass_bytes
            outcome = mediator.bypass(sql, plan)
            assert outcome.per_server_bytes == {
                "sdss": 9600, "first": first_bytes,
            }
            assert outcome.wan_bytes == bypass_bytes
            assert outcome.result.byte_size == yield_bytes
        # Each query shipped twice: once measured, once bypassed.
        assert federation.server("sdss").bytes_shipped == 2 * 6 * 9600
        assert federation.server("first").bytes_shipped == first_shipped


class TestLoadsAndCacheHits:
    def test_load_object(self, mediator):
        size, cost = mediator.load_object("SpecObj")
        assert size == 10 * (8 + 8 + 8 + 8 + 4)
        assert cost == float(size)
        assert mediator.ledger.load_bytes == size

    def test_load_with_weighted_link(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        federation.network.set_link("sdss", 3.0)
        mediator = Mediator(federation)
        size, cost = mediator.load_object("SpecObj")
        assert cost == 3.0 * size

    def test_serve_from_cache_is_lan(self, mediator):
        result = mediator.evaluate("SELECT objID FROM PhotoObj")
        mediator.serve_from_cache(result)
        assert mediator.ledger.cache_bytes == result.byte_size
        assert mediator.ledger.wan_bytes == 0


class TestCrossServerLeftJoinGuard:
    def test_rejected_with_clear_error(self, two_site_mediator):
        from repro.errors import FederationError

        with pytest.raises(FederationError, match="LEFT JOIN"):
            two_site_mediator.bypass(
                "SELECT p.objID, f.peak FROM PhotoObj p "
                "LEFT JOIN First f ON p.objID = f.objID"
            )

    def test_single_server_left_join_allowed(self, mediator):
        outcome = mediator.bypass(
            "SELECT p.objID, s.z FROM PhotoObj p LEFT JOIN SpecObj s "
            "ON p.objID = s.objID"
        )
        assert outcome.result.row_count == 20
        assert outcome.wan_bytes == outcome.result.byte_size


class TestPlanCacheBound:
    def test_cache_evicts_oldest(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        mediator = Mediator(federation, plan_cache_size=2)
        first = mediator.plan("SELECT objID FROM PhotoObj WHERE objID = 1")
        mediator.plan("SELECT objID FROM PhotoObj WHERE objID = 2")
        mediator.plan("SELECT objID FROM PhotoObj WHERE objID = 3")
        # The first plan fell out; replanning builds a fresh object.
        replanned = mediator.plan(
            "SELECT objID FROM PhotoObj WHERE objID = 1"
        )
        assert replanned is not first

    def test_lru_touch_keeps_hot_plan(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        mediator = Mediator(federation, plan_cache_size=2)
        hot = mediator.plan("SELECT objID FROM PhotoObj WHERE objID = 1")
        mediator.plan("SELECT objID FROM PhotoObj WHERE objID = 2")
        mediator.plan("SELECT objID FROM PhotoObj WHERE objID = 1")  # touch
        mediator.plan("SELECT objID FROM PhotoObj WHERE objID = 3")
        assert mediator.plan(
            "SELECT objID FROM PhotoObj WHERE objID = 1"
        ) is hot

    def test_bad_size_rejected(self):
        from repro.errors import FederationError

        federation = Federation.single_site(build_catalog(), "sdss")
        with pytest.raises(FederationError):
            Mediator(federation, plan_cache_size=0)
