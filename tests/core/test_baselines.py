"""Unit tests for baseline policies (GDS, LRU, static, semantic,
no-cache)."""

import pytest

from repro.core.events import CacheQuery, ObjectRequest
from repro.core.policies.baselines import (
    GreedyDualSizePolicy,
    LRUPolicy,
    NoCachePolicy,
    SemanticCachePolicy,
    StaticPolicy,
)
from repro.errors import CacheError


def query(index, *objects, sql=""):
    requests = tuple(
        ObjectRequest(
            object_id=oid, size=size, fetch_cost=cost, yield_bytes=y
        )
        for oid, size, cost, y in objects
    )
    total = int(sum(req.yield_bytes for req in requests))
    return CacheQuery(
        index=index,
        yield_bytes=total,
        bypass_bytes=total,
        objects=requests,
        sql=sql,
    )


class TestNoCache:
    def test_always_bypasses(self):
        policy = NoCachePolicy()
        for i in range(5):
            decision = policy.process(query(i, ("A", 10, 10.0, 5.0)))
            assert decision.bypassed
            assert not decision.loads
        assert policy.hit_rate == 0.0


class TestGreedyDualSize:
    def test_loads_every_miss(self):
        policy = GreedyDualSizePolicy(capacity_bytes=1000)
        decision = policy.process(query(0, ("A", 100, 100.0, 1.0)))
        assert decision.loads == ["A"]
        assert decision.served_from_cache

    def test_hit_after_load(self):
        policy = GreedyDualSizePolicy(capacity_bytes=1000)
        policy.process(query(0, ("A", 100, 100.0, 1.0)))
        decision = policy.process(query(1, ("A", 100, 100.0, 1.0)))
        assert not decision.loads
        assert decision.served_from_cache

    def test_evicts_lowest_h_value(self):
        policy = GreedyDualSizePolicy(capacity_bytes=200)
        # A: cost/size = 0.1; B: cost/size = 2.0.
        policy.process(query(0, ("A", 100, 10.0, 1.0)))
        policy.process(query(1, ("B", 100, 200.0, 1.0)))
        decision = policy.process(query(2, ("C", 100, 100.0, 1.0)))
        assert decision.evictions == ["A"]
        assert "B" in policy.store

    def test_inflation_ages_old_objects(self):
        policy = GreedyDualSizePolicy(capacity_bytes=200)
        policy.process(query(0, ("A", 100, 10.0, 1.0)))
        policy.process(query(1, ("B", 100, 200.0, 1.0)))
        policy.process(query(2, ("C", 100, 100.0, 1.0)))  # evicts A, L=0.1
        # C admitted at H = L + 1.0 = 1.1; fresh D (cost 30, H = 0.4)
        # loses to C but also evicts B? B has H = 2.0, C 1.1.
        decision = policy.process(query(3, ("D", 100, 30.0, 1.0)))
        assert decision.evictions == ["C"]

    def test_object_larger_than_cache_bypassed(self):
        policy = GreedyDualSizePolicy(capacity_bytes=50)
        decision = policy.process(query(0, ("A", 100, 100.0, 1.0)))
        assert decision.bypassed
        assert not decision.loads

    def test_h_value_accessor(self):
        policy = GreedyDualSizePolicy(capacity_bytes=200)
        policy.process(query(0, ("A", 100, 50.0, 1.0)))
        assert policy.h_value("A") == pytest.approx(0.5)
        with pytest.raises(CacheError):
            policy.h_value("ghost")

    def test_does_not_evict_current_query_objects(self):
        policy = GreedyDualSizePolicy(capacity_bytes=200)
        decision = policy.process(
            query(0, ("A", 100, 10.0, 1.0), ("B", 100, 10.0, 1.0))
        )
        assert decision.served_from_cache
        # Third object cannot fit without evicting A or B mid-query:
        decision = policy.process(
            query(
                1,
                ("A", 100, 10.0, 1.0),
                ("B", 100, 10.0, 1.0),
                ("C", 100, 10.0, 1.0),
            )
        )
        assert decision.bypassed
        assert "A" in policy.store and "B" in policy.store


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy(capacity_bytes=200)
        policy.process(query(0, ("A", 100, 100.0, 1.0)))
        policy.process(query(1, ("B", 100, 100.0, 1.0)))
        policy.process(query(2, ("A", 100, 100.0, 1.0)))  # refresh A
        decision = policy.process(query(3, ("C", 100, 100.0, 1.0)))
        assert decision.evictions == ["B"]

    def test_hit_refreshes_recency(self):
        policy = LRUPolicy(capacity_bytes=200)
        policy.process(query(0, ("A", 100, 100.0, 1.0)))
        policy.process(query(1, ("B", 100, 100.0, 1.0)))
        policy.process(query(2, ("B", 100, 100.0, 1.0)))
        policy.process(query(3, ("A", 100, 100.0, 1.0)))
        decision = policy.process(query(4, ("C", 100, 100.0, 1.0)))
        assert decision.evictions == ["B"]


class TestStatic:
    def test_fixed_set_never_changes(self):
        policy = StaticPolicy(capacity_bytes=300, objects={"A": 100, "B": 100})
        hit = policy.process(
            query(0, ("A", 100, 100.0, 1.0), ("B", 100, 100.0, 1.0))
        )
        assert hit.served_from_cache
        miss = policy.process(query(1, ("C", 100, 100.0, 1.0)))
        assert miss.bypassed
        assert not miss.loads
        assert "C" not in policy.store

    def test_partial_coverage_bypasses(self):
        policy = StaticPolicy(capacity_bytes=300, objects={"A": 100})
        decision = policy.process(
            query(0, ("A", 100, 100.0, 1.0), ("B", 100, 100.0, 1.0))
        )
        assert decision.bypassed

    def test_overfull_set_rejected(self):
        with pytest.raises(CacheError):
            StaticPolicy(capacity_bytes=150, objects={"A": 100, "B": 100})


class TestSemantic:
    def test_exact_repeat_hits(self):
        policy = SemanticCachePolicy(capacity_bytes=1000)
        sql = "SELECT 1 FROM T"
        first = policy.process(query(0, ("T", 10, 10.0, 8.0), sql=sql))
        assert first.bypassed
        second = policy.process(query(1, ("T", 10, 10.0, 8.0), sql=sql))
        assert second.served_from_cache

    def test_different_sql_misses(self):
        policy = SemanticCachePolicy(capacity_bytes=1000)
        policy.process(query(0, ("T", 10, 10.0, 8.0), sql="q1"))
        decision = policy.process(query(1, ("T", 10, 10.0, 8.0), sql="q2"))
        assert decision.bypassed

    def test_lru_eviction_of_results(self):
        policy = SemanticCachePolicy(capacity_bytes=20)
        policy.process(query(0, ("T", 10, 10.0, 12.0), sql="q1"))
        policy.process(query(1, ("T", 10, 10.0, 12.0), sql="q2"))
        # q1's result (12 B) was evicted to admit q2's.
        decision = policy.process(query(2, ("T", 10, 10.0, 12.0), sql="q1"))
        assert decision.bypassed

    def test_oversized_result_not_admitted(self):
        policy = SemanticCachePolicy(capacity_bytes=10)
        policy.process(query(0, ("T", 10, 10.0, 50.0), sql="big"))
        decision = policy.process(query(1, ("T", 10, 10.0, 50.0), sql="big"))
        assert decision.bypassed


class TestSemanticEvictionOrder:
    def test_lru_order_respects_hits(self):
        policy = SemanticCachePolicy(capacity_bytes=30)
        policy.process(query(0, ("T", 10, 10.0, 12.0), sql="q1"))
        policy.process(query(1, ("T", 10, 10.0, 12.0), sql="q2"))
        policy.process(query(2, ("T", 10, 10.0, 12.0), sql="q1"))  # hit
        # Admitting q3 (12 B) must evict q2 (least recent), not q1.
        policy.process(query(3, ("T", 10, 10.0, 12.0), sql="q3"))
        assert policy.process(
            query(4, ("T", 10, 10.0, 12.0), sql="q1")
        ).served_from_cache
        assert policy.process(
            query(5, ("T", 10, 10.0, 12.0), sql="q2")
        ).bypassed


class TestInlinePoliciesNeverBypassWhenFits:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: GreedyDualSizePolicy(1000),
            lambda: LRUPolicy(1000),
        ],
    )
    def test_always_serves_when_capacity_allows(self, factory):
        policy = factory()
        for i in range(10):
            decision = policy.process(
                query(i, (f"o{i % 3}", 100, 100.0, 1.0))
            )
            assert decision.served_from_cache
