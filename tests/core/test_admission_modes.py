"""Unit tests for A_obj admission modes and simulator cost views."""

import pytest

from repro.core.events import CacheQuery, ObjectRequest
from repro.core.object_cache import BypassObjectCache
from repro.core.policies.online import OnlineBYPolicy
from repro.core.store import CacheStore
from repro.errors import CacheError
from repro.federation import Federation
from repro.sim.simulator import Simulator
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog


class TestEagerAdmission:
    def test_eager_loads_on_first_request(self):
        cache = BypassObjectCache(CacheStore(100), admission="eager")
        outcome = cache.request("A", size=50, fetch_cost=50.0)
        assert outcome.loaded
        assert "A" in cache

    def test_rent_to_buy_still_default(self):
        cache = BypassObjectCache(CacheStore(100))
        assert cache.admission == "rent-to-buy"
        assert not cache.request("A", size=50, fetch_cost=50.0).loaded

    def test_unknown_mode_rejected(self):
        with pytest.raises(CacheError):
            BypassObjectCache(CacheStore(100), admission="psychic")

    def test_online_by_eager_passthrough(self):
        policy = OnlineBYPolicy(1000, admission="eager")
        decision = policy.process(
            CacheQuery(
                index=0,
                yield_bytes=100,
                bypass_bytes=100,
                objects=(
                    ObjectRequest("A", size=100, fetch_cost=100.0,
                                  yield_bytes=100.0),
                ),
            )
        )
        # BYU crosses 1.0 immediately; eager admission loads right away.
        assert decision.loads == ["A"]
        assert decision.served_from_cache

    def test_eager_still_respects_capacity(self):
        cache = BypassObjectCache(CacheStore(100), admission="eager")
        cache.request("A", size=80, fetch_cost=80.0)
        cache.request("B", size=80, fetch_cost=80.0)
        assert cache.store.used_bytes <= 100


class TestPolicyCostView:
    def _stack(self, weight):
        federation = Federation.single_site(build_catalog(), "sdss")
        federation.network.set_link("sdss", weight)
        trace = PreparedTrace(
            "unit",
            [
                PreparedQuery(
                    index=0,
                    sql="q",
                    template="t",
                    yield_bytes=100,
                    bypass_bytes=100,
                    table_yields={"SpecObj": 100.0},
                    column_yields={},
                    servers=("sdss",),
                )
            ],
        )
        return federation, trace

    def test_weighted_view_scales_cost_and_yield(self):
        federation, trace = self._stack(weight=4.0)
        simulator = Simulator(federation, "table", policy_sees_weights=True)
        event = simulator.build_query(trace.queries[0], 0)
        request = event.objects[0]
        size = federation.object_size("SpecObj")
        assert request.fetch_cost == pytest.approx(4.0 * size)
        # Yield expressed in the same weighted cost units (BYHR view).
        assert request.yield_bytes == pytest.approx(4.0 * 100.0)
        assert request.size == size  # cache space stays raw bytes

    def test_byu_view_is_raw_bytes(self):
        federation, trace = self._stack(weight=4.0)
        simulator = Simulator(federation, "table", policy_sees_weights=False)
        event = simulator.build_query(trace.queries[0], 0)
        request = event.objects[0]
        assert request.fetch_cost == float(federation.object_size("SpecObj"))
        assert request.yield_bytes == pytest.approx(100.0)

    def test_uniform_network_views_identical(self):
        federation, trace = self._stack(weight=1.0)
        byhr = Simulator(federation, "table", policy_sees_weights=True)
        byu = Simulator(federation, "table", policy_sees_weights=False)
        a = byhr.build_query(trace.queries[0], 0).objects[0]
        b = byu.build_query(trace.queries[0], 0).objects[0]
        assert a == b

    def test_charges_always_weighted(self):
        """Whichever view the policy sees, the WAN ledger uses true
        weighted costs."""
        from repro.core.policies.baselines import NoCachePolicy

        federation, trace = self._stack(weight=4.0)
        for sees in (True, False):
            simulator = Simulator(
                federation, "table", policy_sees_weights=sees
            )
            result = simulator.run(trace, NoCachePolicy())
            assert result.weighted_cost == pytest.approx(400.0)
            assert result.total_bytes == 100
