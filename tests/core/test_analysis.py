"""Unit tests for the competitive-analysis utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    CompetitiveReport,
    exact_opt,
    measure_competitive_ratio,
    offline_single_object_opt,
    opt_lower_bound,
)
from repro.core.pipeline import CompiledQuery, DecisionPipeline
from repro.core.policies import POLICY_REGISTRY, make_policy
from repro.core.policies.base import CachePolicy
from repro.core.policies.online import OnlineBYPolicy
from repro.errors import CacheError
from repro.federation import Federation
from repro.sim.results import SimulationResult
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog


def prepared(index, table_yields):
    total = int(sum(table_yields.values()))
    return PreparedQuery(
        index=index,
        sql=f"q{index}",
        template="t",
        yield_bytes=total,
        bypass_bytes=total,
        table_yields=table_yields,
        column_yields={},
        servers=("sdss",),
    )


class TestSingleObjectOpt:
    def test_cheap_object_loads(self):
        # Total yields 300 exceed fetch cost 100 -> load immediately.
        assert offline_single_object_opt([100, 100, 100], 100.0) == 100.0

    def test_cold_object_never_loads(self):
        assert offline_single_object_opt([10, 10], 100.0) == 20.0

    def test_empty_stream_is_free(self):
        assert offline_single_object_opt([], 100.0) == 0.0

    def test_break_even(self):
        assert offline_single_object_opt([50, 50], 100.0) == 100.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(CacheError):
            offline_single_object_opt([-1.0], 10.0)
        with pytest.raises(CacheError):
            offline_single_object_opt([1.0], -10.0)


class TestOptLowerBound:
    def test_decomposes_per_object(self):
        queries = [
            prepared(0, {"hot": 100.0}),
            prepared(1, {"hot": 100.0}),
            prepared(2, {"cold": 5.0}),
        ]
        report = opt_lower_bound(
            queries,
            "table",
            object_sizes={"hot": 100, "cold": 100},
            fetch_costs={"hot": 100.0, "cold": 100.0},
        )
        assert report.per_object_bounds["hot"] == 100.0  # loads
        assert report.per_object_bounds["cold"] == 5.0   # bypasses
        assert report.opt_lower_bound == 105.0

    def test_missing_cost_raises(self):
        with pytest.raises(CacheError):
            opt_lower_bound(
                [prepared(0, {"x": 1.0})], "table", {}, {}
            )

    def test_ratio_of_zero_bound(self):
        report = CompetitiveReport(policy_cost=0.0, opt_lower_bound=0.0)
        assert report.empirical_ratio == 1.0
        report = CompetitiveReport(policy_cost=5.0, opt_lower_bound=0.0)
        assert report.empirical_ratio == float("inf")


class TestMeasuredRatio:
    def test_online_by_within_sane_factor(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        photo = federation.object_size("PhotoObj")
        queries = [
            prepared(i, {"PhotoObj": float(photo)}) for i in range(10)
        ]
        trace = PreparedTrace("hot", queries)
        policy = OnlineBYPolicy(capacity_bytes=photo * 2)
        report = measure_competitive_ratio(
            trace, federation, policy, "table"
        )
        # OPT loads once (f).  OnlineBY bypasses the first query (its
        # rent), then the second query's object request finds rent = f
        # and buys: bypass f + load f = 2f — the ski-rental worst case.
        assert report.opt_lower_bound == pytest.approx(float(photo))
        assert report.policy_cost == pytest.approx(2.0 * photo)
        assert report.empirical_ratio == pytest.approx(2.0)

    def test_cold_workload_ratio_is_one(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        queries = [
            prepared(i, {"PhotoObj": 1.0}) for i in range(5)
        ]
        trace = PreparedTrace("cold", queries)
        policy = OnlineBYPolicy(capacity_bytes=10**6)
        report = measure_competitive_ratio(
            trace, federation, policy, "table"
        )
        # Nothing worth caching: both policy and OPT bypass everything.
        assert report.empirical_ratio == pytest.approx(1.0)


# ----------------------------------------------------------------------
# The exact offline optimum
# ----------------------------------------------------------------------


class _UnitCatalog:
    """Object sizes at unit link weight: a load costs its size."""

    def __init__(self, sizes):
        self._sizes = sizes

    def size(self, object_id):
        return self._sizes[object_id]

    def fetch_cost(self, object_id):
        return float(self._sizes[object_id])


class _Scheduled(CachePolicy):
    """Follows a precomputed schedule, one :class:`Decision` per query."""

    name = "scheduled"

    def __init__(self, capacity_bytes, schedule):
        super().__init__(capacity_bytes)
        self._schedule = iter(schedule)

    def decide(self, query):
        decision = next(self._schedule)
        sizes = {request.object_id: request.size for request in query.objects}
        for object_id in decision.evictions:
            self.store.remove(object_id)
        for object_id in decision.loads:
            self.store.add(object_id, sizes[object_id])
        return decision


def replay_wan(policy, queries, sizes):
    """WAN bytes of ``policy`` over ``queries`` through the real step.

    Every query carries distinct SQL text, as scientific workloads do
    (§6.1), so the semantic result cache never hits.
    """
    pipeline = DecisionPipeline(Federation(), catalog=_UnitCatalog(sizes))
    result = SimulationResult(policy.name, "table", policy.capacity_bytes)
    for index, shares in enumerate(queries):
        total = int(sum(shares.values()))
        query = pipeline.build_query(index, shares, total, total, f"q{index}")
        pipeline.step(CompiledQuery(query, total, ()), policy, result, index)
    return result.total_bytes


def lower_bound(queries, sizes):
    costs = {oid: float(size) for oid, size in sizes.items()}
    trace = [prepared(i, shares) for i, shares in enumerate(queries)]
    return opt_lower_bound(trace, "table", sizes, costs).opt_lower_bound


def solve(queries, sizes, capacity):
    costs = {oid: float(size) for oid, size in sizes.items()}
    return exact_opt(queries, sizes, costs, capacity)


@st.composite
def instances(draw, max_objects=6, single_object=False):
    ids = [f"o{i}" for i in range(draw(st.integers(1, max_objects)))]
    sizes = {oid: draw(st.integers(1, 64)) for oid in ids}
    shares = st.integers(0, 64).map(float)
    query = st.dictionaries(
        st.sampled_from(ids), shares, min_size=1,
        max_size=1 if single_object else 3,
    )
    queries = draw(st.lists(query, max_size=24))
    capacity = draw(st.integers(1, sum(sizes.values())))
    return queries, sizes, capacity


class TestExactOpt:
    def test_one_object_cache_alternating_queries(self):
        # The relaxed bound loads both objects once (200); with room for
        # one, the optimum keeps "a" and bypasses every "b" query.
        queries = [{"a" if i % 2 == 0 else "b": 10.0} for i in range(100)]
        sizes = {"a": 100, "b": 100}
        cost, schedule = solve(queries, sizes, capacity=100)
        assert cost == 600.0
        assert lower_bound(queries, sizes) == 200.0
        assert sum(d.served_from_cache for d in schedule) == 50

    def test_schedule_names_loads_and_evictions(self):
        queries = [{"a": 90.0}, {"b": 90.0}, {"b": 90.0}]
        cost, schedule = solve(queries, {"a": 50, "b": 50}, capacity=50)
        assert cost == 100.0
        assert [d.loads for d in schedule] == [["a"], ["b"], []]
        assert [d.evictions for d in schedule] == [[], ["a"], []]

    def test_object_larger_than_cache_is_bypassed(self):
        cost, schedule = solve([{"big": 5.0}] * 3, {"big": 10}, capacity=9)
        assert cost == 15.0
        assert not any(d.served_from_cache for d in schedule)

    def test_refuses_more_than_16_objects(self):
        count = 17
        queries = [{f"o{i}": 1.0} for i in range(count)]
        sizes = {f"o{i}": 1 for i in range(count)}
        with pytest.raises(CacheError, match="at most"):
            solve(queries, sizes, capacity=4)

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_schedule_replays_to_its_cost(self, instance):
        queries, sizes, capacity = instance
        cost, schedule = solve(queries, sizes, capacity)
        policy = _Scheduled(capacity, schedule)
        assert replay_wan(policy, queries, sizes) == cost


@settings(max_examples=40, deadline=None)
@given(instances())
def test_exact_opt_between_bound_and_every_policy(instance):
    queries, sizes, capacity = instance
    cost, _ = solve(queries, sizes, capacity)
    assert lower_bound(queries, sizes) <= cost
    for name in sorted(POLICY_REGISTRY):
        wan = replay_wan(make_policy(name, capacity), queries, sizes)
        assert cost <= wan, name


@settings(max_examples=60, deadline=None)
@given(instances(single_object=True))
def test_exact_opt_is_the_bound_without_capacity_pressure(instance):
    queries, sizes, _ = instance
    cost, _ = solve(queries, sizes, capacity=sum(sizes.values()))
    assert cost == lower_bound(queries, sizes)


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(0, 64))
def test_exact_opt_never_rises_with_capacity(instance, extra):
    queries, sizes, capacity = instance
    smaller, _ = solve(queries, sizes, capacity)
    larger, _ = solve(queries, sizes, capacity + extra)
    assert larger <= smaller
