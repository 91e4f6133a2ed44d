"""Golden-decision equivalence: heap/offset/vectorized hot paths vs the
full-scan implementations they replaced.

Each reference class below reproduces, verbatim, the pre-optimization
victim selection (full scans over policy state or the store), the
per-round Landlord credit drain, and the per-call sorted eviction scan
of the rate-profile policy, as recorded in git history.  Seeded
adversarial streams — including tie-heavy ones that stress the scans'
tie-break order — are replayed through both implementations and every
per-query decision (served flag, load order, eviction order), the
synthetic WAN total, and the final cache state must match exactly.

Stream sizes are powers of two and costs/yields are integer-valued, so
every credit/utility computation is exact dyadic-rational arithmetic:
"identical decisions" here really means bit-identical floats, not
approximate agreement (the float-dust analysis for arbitrary inputs is
in DESIGN.md §9).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro.core.events import CacheQuery, Decision, ObjectRequest
from repro.core.object_cache import ObjectOutcome
from repro.core.policies.baselines import (
    GreedyDualSizePolicy,
    LRUPolicy,
)
from repro.core.policies.online import OnlineBYPolicy, SpaceEffBYPolicy
from repro.core.policies.rate_profile import RateProfilePolicy
from repro.core.policies.rate_profile import _np
from repro.core.ski_rental import SkiRental
from repro.core.store import CacheStore
from repro.errors import CacheError

# ---------------------------------------------------------------------------
# Reference implementations (pre-heap, from git history)
# ---------------------------------------------------------------------------


class RefGDS(GreedyDualSizePolicy):
    """GDS with the original full scan over ``_h_values``."""

    def _touch(self, request: ObjectRequest) -> None:
        self._h_values[request.object_id] = self._utility(request)

    def _admit(self, request: ObjectRequest) -> None:
        self._touch(request)

    def _forget(self, object_id: str) -> None:
        value = self._h_values.pop(object_id, None)
        if value is not None:
            self._inflation = max(self._inflation, value)

    def _forget_quietly(self, object_id: str) -> None:
        self._h_values.pop(object_id, None)

    def _choose_victim(self, protected: Set[str]) -> Optional[str]:
        candidates = [
            (value, object_id)
            for object_id, value in self._h_values.items()
            if object_id not in protected
        ]
        if not candidates:
            return None
        return min(candidates)[1]


class RefLRU(LRUPolicy):
    """LRU with the original recency ``OrderedDict`` walk."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def _touch(self, request: ObjectRequest) -> None:
        self._order.move_to_end(request.object_id)

    def _admit(self, request: ObjectRequest) -> None:
        self._order[request.object_id] = None

    def _forget(self, object_id: str) -> None:
        self._order.pop(object_id, None)

    def _choose_victim(self, protected: Set[str]) -> Optional[str]:
        for object_id in self._order:
            if object_id not in protected:
                return object_id
        return None


class ReferenceBypassObjectCache:
    """The pre-offset Landlord cache: eager per-round credit drain."""

    def __init__(self, store: CacheStore, admission: str = "rent-to-buy"):
        self.admission = admission
        self.store = store
        self._credits: Dict[str, float] = {}
        self._fetch_costs: Dict[str, float] = {}
        self._accounts: Dict[str, SkiRental] = {}
        self.hits = 0
        self.misses = 0
        self.loads = 0

    def __contains__(self, object_id: str) -> bool:
        return object_id in self.store

    def credit(self, object_id: str) -> float:
        if object_id not in self.store:
            raise CacheError(f"{object_id!r} is not cached")
        return self._credits[object_id]

    def request(
        self, object_id: str, size: int, fetch_cost: float
    ) -> ObjectOutcome:
        if object_id in self.store:
            self.hits += 1
            self._credits[object_id] = fetch_cost
            self._fetch_costs[object_id] = fetch_cost
            return ObjectOutcome(hit=True)

        self.misses += 1
        if not self.store.fits(size):
            return ObjectOutcome(hit=False)

        account = self._accounts.get(object_id)
        if account is None or account.buy_cost != fetch_cost:
            paid = account.paid if account is not None else 0.0
            account = SkiRental(buy_cost=fetch_cost, paid=paid)
            self._accounts[object_id] = account
        if account.bought:
            account.reset()

        if self.admission == "eager" or account.should_buy():
            evicted = self._make_room(size)
            self.store.add(object_id, size)
            self._credits[object_id] = fetch_cost
            self._fetch_costs[object_id] = fetch_cost
            account.buy()
            self.loads += 1
            return ObjectOutcome(hit=False, loaded=True, evicted=evicted)

        account.pay_rent(fetch_cost)
        return ObjectOutcome(hit=False)

    def _make_room(self, size: int) -> List[str]:
        if self.store.has_room(size):
            return []
        ranked = sorted(
            self.store.object_ids(),
            key=lambda oid: self._credits[oid] / self.store.size_of(oid),
        )
        evicted: List[str] = []
        drained_ratio = 0.0
        for object_id in ranked:
            if self.store.has_room(size):
                break
            drained_ratio = (
                self._credits[object_id] / self.store.size_of(object_id)
            )
            self.store.remove(object_id)
            del self._credits[object_id]
            self._fetch_costs.pop(object_id, None)
            evicted.append(object_id)
        if drained_ratio > 0.0:
            for object_id in self.store.object_ids():
                reduced = self._credits[object_id] - (
                    drained_ratio * self.store.size_of(object_id)
                )
                self._credits[object_id] = max(0.0, reduced)
        if not self.store.has_room(size):
            raise CacheError(
                "landlord eviction failed to free enough space; "
                "object size exceeds capacity"
            )
        return evicted

    def evict(self, object_id: str) -> None:
        self.store.remove(object_id)
        self._credits.pop(object_id, None)
        self._fetch_costs.pop(object_id, None)
        account = self._accounts.get(object_id)
        if account is not None:
            account.reset()

    def tracked_accounts(self) -> int:
        return len(self._accounts)


class RefRateProfile(RateProfilePolicy):
    """Rate-profile with the original per-call sorted eviction scan."""

    def _plan_load(
        self, request: ObjectRequest, protected: set
    ) -> Optional[List[str]]:
        if not self.store.fits(request.size):
            return None
        lar = self.load_adjusted_rate(request.object_id)
        if lar <= 0:
            return None
        needed = request.size - self.store.free_bytes
        if needed <= 0:
            return []
        candidates = sorted(
            (
                (self._cached[oid].rate_profile(self._time), oid)
                for oid in self.store.object_ids()
                if oid not in protected
            ),
        )
        victims: List[str] = []
        freed = 0
        for rate, object_id in candidates:
            if rate >= lar:
                break
            victims.append(object_id)
            freed += self.store.size_of(object_id)
            if freed >= needed:
                return victims
        return None

    def _prune_outside(self) -> None:
        ranked = sorted(
            self._outside.items(), key=lambda item: item[1].last_access
        )
        drop = max(1, len(ranked) // 10)
        for object_id, _ in ranked[:drop]:
            del self._outside[object_id]


class SpyRateProfile(RateProfilePolicy):
    """Counts epochs that took the vectorized ranking branch."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vector_epochs = 0

    def _rank_candidates(self) -> None:
        super()._rank_candidates()
        if self._plan_order is not None:
            self.vector_epochs += 1


# ---------------------------------------------------------------------------
# Stream generators
# ---------------------------------------------------------------------------


def make_stream(
    seed: int,
    n_queries: int,
    n_objects: int,
    uniform_size: Optional[int] = None,
    uniform_cost_ratio: Optional[int] = None,
    yield_choices: Tuple[int, ...] = (0, 32, 64, 128, 256),
    objects_per_query: int = 3,
    hot_objects: int = 8,
) -> List[CacheQuery]:
    """Seeded query stream with residency churn and forced ties.

    Power-of-two sizes (and optionally a single uniform size / a
    uniform cost:size ratio) drive utility and credit collisions, so
    the replaced scans' tie-break paths are exercised constantly.
    """
    rng = random.Random(seed)
    sizes = {
        f"obj{i:04d}": (
            uniform_size
            if uniform_size is not None
            else rng.choice((64, 128, 256, 512))
        )
        for i in range(n_objects)
    }
    ids = list(sizes)
    queries: List[CacheQuery] = []
    for index in range(n_queries):
        picked: List[str] = []
        # One draw from a hot head (re-references → hits, touches) plus
        # a cold tail (churn → admissions and evictions).
        for candidate in (
            rng.choice(ids[:hot_objects]),
            *rng.sample(ids, rng.randint(1, objects_per_query)),
        ):
            if candidate not in picked:
                picked.append(candidate)
        objects = []
        for oid in picked:
            size = sizes[oid]
            ratio = (
                uniform_cost_ratio
                if uniform_cost_ratio is not None
                else rng.choice((1, 2, 4))
            )
            objects.append(
                ObjectRequest(
                    object_id=oid,
                    size=size,
                    fetch_cost=float(size * ratio),
                    yield_bytes=float(rng.choice(yield_choices)),
                )
            )
        total_yield = sum(req.yield_bytes for req in objects)
        queries.append(
            CacheQuery(
                index=index,
                yield_bytes=total_yield,
                bypass_bytes=total_yield,
                objects=tuple(objects),
                sql=f"SELECT {index}",
            )
        )
    return queries


def replay_pair(new_policy, ref_policy, queries) -> Tuple[float, float]:
    """Replay through both policies asserting per-query equality.

    Returns the (identical) synthetic WAN totals: bypass bytes for
    unserved queries plus whole-object bytes for every load.
    """
    wan_new = wan_ref = 0.0
    for query in queries:
        got: Decision = new_policy.process(query)
        want: Decision = ref_policy.process(query)
        assert (
            got.served_from_cache,
            got.loads,
            got.evictions,
        ) == (
            want.served_from_cache,
            want.loads,
            want.evictions,
        ), f"decision diverged at query {query.index}"
        for decision, policy in ((got, new_policy), (want, ref_policy)):
            charge = 0.0 if decision.served_from_cache else query.bypass_bytes
            charge += sum(
                policy.store.size_of(oid)
                for oid in decision.loads
                if oid in policy.store
            )
            if policy is new_policy:
                wan_new += charge
            else:
                wan_ref += charge
    assert wan_new == wan_ref
    assert new_policy.store.object_ids() == ref_policy.store.object_ids()
    assert new_policy.store.used_bytes == ref_policy.store.used_bytes
    return wan_new, wan_ref


# ---------------------------------------------------------------------------
# In-line baseline policies
# ---------------------------------------------------------------------------

INLINE_PAIRS = [
    pytest.param(GreedyDualSizePolicy, RefGDS, id="gds"),
    pytest.param(LRUPolicy, RefLRU, id="lru"),
]


class TestInlineGolden:
    CAPACITY = 4096

    @pytest.mark.parametrize("new_cls,ref_cls", INLINE_PAIRS)
    @pytest.mark.parametrize("seed", [11, 29])
    def test_mixed_stream(self, new_cls, ref_cls, seed):
        queries = make_stream(seed, n_queries=600, n_objects=120)
        replay_pair(
            new_cls(self.CAPACITY), ref_cls(self.CAPACITY), queries
        )

    @pytest.mark.parametrize("new_cls,ref_cls", INLINE_PAIRS)
    def test_tie_heavy_stream(self, new_cls, ref_cls):
        # Uniform size and cost ratio: every GDS utility and
        # Landlord-style ratio collides, so victim choice is decided
        # purely by each scan's tie-break rule.
        queries = make_stream(
            7,
            n_queries=500,
            n_objects=80,
            uniform_size=128,
            uniform_cost_ratio=2,
        )
        replay_pair(
            new_cls(self.CAPACITY), ref_cls(self.CAPACITY), queries
        )

    def test_gds_internal_state_matches(self):
        queries = make_stream(3, n_queries=400, n_objects=100)
        new = GreedyDualSizePolicy(self.CAPACITY)
        ref = RefGDS(self.CAPACITY)
        replay_pair(new, ref, queries)
        assert new._inflation == ref._inflation
        assert new._h_values == ref._h_values

    def test_invalidation_stays_quiet_in_both(self):
        # _drop must not age either implementation.
        queries = make_stream(5, n_queries=200, n_objects=60)
        new = GreedyDualSizePolicy(self.CAPACITY)
        ref = RefGDS(self.CAPACITY)
        for query in queries[:100]:
            new.process(query)
            ref.process(query)
        victim = new.store.object_ids()[0]
        assert new.invalidate(victim) and ref.invalidate(victim)
        assert new._inflation == ref._inflation
        replay_pair(new, ref, queries[100:])


# ---------------------------------------------------------------------------
# Landlord / OnlineBY / SpaceEffBY
# ---------------------------------------------------------------------------


class TestLandlordGolden:
    CAPACITY = 4096

    def _pair(self, admission: str):
        new = OnlineBYPolicy(self.CAPACITY, admission=admission)
        ref = OnlineBYPolicy(self.CAPACITY, admission=admission)
        ref.object_cache = ReferenceBypassObjectCache(
            ref.store, admission=admission
        )
        return new, ref

    @pytest.mark.parametrize("admission", ["rent-to-buy", "eager"])
    @pytest.mark.parametrize("seed", [13, 41])
    def test_online_by_matches_reference(self, admission, seed):
        queries = make_stream(
            seed,
            n_queries=800,
            n_objects=100,
            yield_choices=(64, 128, 256, 512),
        )
        new, ref = self._pair(admission)
        replay_pair(new, ref, queries)
        assert (
            new.object_cache.hits,
            new.object_cache.misses,
            new.object_cache.loads,
        ) == (
            ref.object_cache.hits,
            ref.object_cache.misses,
            ref.object_cache.loads,
        )
        # Lazily materialized credits equal the eagerly drained ones —
        # exactly, thanks to the dyadic stream arithmetic.
        for object_id in new.store.object_ids():
            assert new.object_cache.credit(object_id) == (
                ref.object_cache.credit(object_id)
            ), object_id

    def test_eager_tie_heavy_offsets(self):
        # Uniform size + cost → every rank collides; eviction order must
        # fall back to residency (load) order, as the stable sort did.
        queries = make_stream(
            23,
            n_queries=600,
            n_objects=64,
            uniform_size=256,
            uniform_cost_ratio=1,
            yield_choices=(64, 256),
        )
        new, ref = self._pair("eager")
        replay_pair(new, ref, queries)

    def test_space_eff_by_matches_reference(self):
        queries = make_stream(
            31,
            n_queries=800,
            n_objects=100,
            yield_choices=(64, 128, 256, 512),
        )
        new = SpaceEffBYPolicy(self.CAPACITY, seed=99)
        ref = SpaceEffBYPolicy(self.CAPACITY, seed=99)
        ref.object_cache = ReferenceBypassObjectCache(ref.store)
        replay_pair(new, ref, queries)

    def test_oversized_object_still_raises(self):
        from repro.core.object_cache import BypassObjectCache

        store = CacheStore(100)
        store.add("pinned", 100)
        cache = BypassObjectCache(store, admission="eager")
        cache._set_credit("pinned", 100, 50.0, 1)
        with pytest.raises(CacheError):
            cache._make_room(150)


# ---------------------------------------------------------------------------
# Rate-profile
# ---------------------------------------------------------------------------


class TestRateProfileGolden:
    @pytest.mark.parametrize("seed", [17, 53])
    def test_python_path_matches_reference(self, seed):
        # < 512 residents: the pure-Python sorted fallback ranks epochs.
        queries = make_stream(
            seed,
            n_queries=800,
            n_objects=100,
            yield_choices=(0, 64, 128, 256, 512, 1024),
        )
        replay_pair(
            RateProfilePolicy(4096), RefRateProfile(4096), queries
        )

    def test_tie_heavy_stream_matches_reference(self):
        # Uniform sizes/yields make objects loaded in the same epoch
        # carry exactly equal rates, stressing the object-id tie-break.
        queries = make_stream(
            37,
            n_queries=700,
            n_objects=90,
            uniform_size=128,
            uniform_cost_ratio=1,
            yield_choices=(256,),
        )
        replay_pair(
            RateProfilePolicy(2048), RefRateProfile(2048), queries
        )

    def test_vectorized_path_matches_reference(self):
        # >= 512 residents engages the numpy ranking (when available);
        # unit sizes let ~700 objects stay resident at once.
        rng = random.Random(71)
        ids = [f"v{i:04d}" for i in range(900)]
        queries = []
        for index in range(1500):
            picked = rng.sample(ids, 4)
            objects = tuple(
                ObjectRequest(
                    object_id=oid,
                    size=1,
                    fetch_cost=1.0,
                    yield_bytes=float(rng.choice((2, 4))),
                )
                for oid in picked
            )
            total = sum(req.yield_bytes for req in objects)
            queries.append(
                CacheQuery(
                    index=index,
                    yield_bytes=total,
                    bypass_bytes=total,
                    objects=objects,
                )
            )
        spy = SpyRateProfile(700)
        replay_pair(spy, RefRateProfile(700), queries)
        if _np is not None:
            assert spy.vector_epochs > 0, (
                "stream never reached the vectorized ranking branch"
            )

    def test_prune_outside_matches_reference(self):
        # A small tracking budget forces the nsmallest-vs-sorted prune
        # paths to fire repeatedly; tracked sets must stay identical.
        queries = make_stream(43, n_queries=600, n_objects=200)
        new = RateProfilePolicy(2048, max_tracked=50)
        ref = RefRateProfile(2048, max_tracked=50)
        replay_pair(new, ref, queries)
        assert new.tracked_outside() == ref.tracked_outside()
        assert set(new._outside) == set(ref._outside)


# ---------------------------------------------------------------------------
# No-fault identity: the resilient path vs the fault-free path, every driver
# ---------------------------------------------------------------------------


class TestNoFaultIdentity:
    """An empty fault schedule must be invisible.

    Under a transport the per-query step decides through
    `DecisionPipeline.resolve`, a separate code path from the
    fault-free decide + account; this pins the two together: with
    `FaultSchedule.empty()` every per-query decision event, the
    cumulative WAN series, and the final accounting must be
    byte-identical — not merely "close".
    """

    POLICIES = (
        "lru", "gds", "online-by", "rate-profile", "no-cache",
    )
    CAPACITY = 1500

    @staticmethod
    def _trace(n=80):
        from repro.workload.trace import PreparedQuery, PreparedTrace

        queries = []
        for i in range(n):
            table = ("PhotoObj", "SpecObj")[i % 5 == 0]
            queries.append(
                PreparedQuery(
                    index=i,
                    sql=f"g{i}",
                    template="t",
                    yield_bytes=100 + (i % 7) * 20,
                    bypass_bytes=100 + (i % 7) * 20,
                    table_yields={table: 100.0 + (i % 7) * 20},
                    column_yields={f"{table}.objID": 100.0 + (i % 7) * 20},
                    servers=("sdss",),
                )
            )
        return PreparedTrace("identity", queries)

    @staticmethod
    def _event_key(event):
        return (
            event.index,
            event.served_from_cache,
            event.loads,
            event.evictions,
            event.load_bytes,
            event.bypass_bytes,
            event.weighted_cost,
            event.retries,
            event.retry_bytes,
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_schedule_stream_identical(self, policy):
        from repro.core.instrumentation import Instrumentation
        from repro.faults import FaultEngine, FaultSchedule
        from repro.faults.transport import ResilientTransport
        from repro.federation import Federation
        from repro.sim.runner import build_policy
        from repro.sim.simulator import Simulator

        from tests.conftest import build_catalog

        trace = self._trace()
        streams = []
        for use_transport in (False, True):
            federation = Federation.single_site(build_catalog(), "sdss")
            sink = Instrumentation()
            simulator = Simulator(
                federation, "table", instrumentation=sink
            )
            built = build_policy(
                policy, self.CAPACITY, trace, federation, "table"
            )
            transport = (
                ResilientTransport(FaultEngine(FaultSchedule.empty()))
                if use_transport
                else None
            )
            result = simulator.run(trace, built, transport=transport)
            streams.append(
                (
                    [self._event_key(e) for e in sink.events],
                    result.total_bytes,
                    result.weighted_cost,
                    result.served_queries,
                    result.cumulative_bytes,
                    result.breakdown.retry_bytes,
                )
            )
        plain, faulted = streams
        assert faulted == plain
        assert faulted[5] == 0

    def _drive(self, driver, policy_name, traced, use_transport):
        """One replay of ``_trace()`` through one event source."""
        import asyncio

        from repro.core.instrumentation import Instrumentation
        from repro.core.pipeline import DecisionPipeline
        from repro.faults import FaultEngine, FaultSchedule
        from repro.faults.transport import ResilientTransport
        from repro.federation import Federation
        from repro.obs.spans import SpanTracer
        from repro.service.session import DecisionGate
        from repro.sim.multi import ClientSite, simulate_fleet
        from repro.sim.runner import build_policy
        from repro.sim.simulator import Simulator

        from tests.conftest import build_catalog

        trace = self._trace()
        federation = Federation.single_site(build_catalog(), "sdss")
        sink = Instrumentation()
        tracer = SpanTracer(wall_clock=False) if traced else None
        policy = build_policy(
            policy_name, self.CAPACITY, trace, federation, "table"
        )
        transport = (
            ResilientTransport(FaultEngine(FaultSchedule.empty()))
            if use_transport
            else None
        )
        if driver == "list":
            result = Simulator(
                federation, "table", instrumentation=sink, tracer=tracer
            ).run(trace, policy, transport=transport)
        elif driver == "stream":
            result = Simulator(
                federation, "table", instrumentation=sink, tracer=tracer
            ).run_stream(
                iter(trace), policy, record_series=True, transport=transport
            )
        elif driver == "shard":
            result = simulate_fleet(
                federation,
                [ClientSite("solo", trace, policy)],
                record_series=True,
                instrumentation=sink,
                cooperative=True,
            ).per_client["solo"]
        else:
            gate = DecisionGate(
                DecisionPipeline(
                    federation, "table", instrumentation=sink, tracer=tracer
                ),
                policy,
            )

            async def serve():
                for prepared in trace:
                    await gate.locked_resolve(prepared)

            asyncio.run(serve())
            result = gate.finalize()
        return (
            [self._event_key(e) + (e.tenant,) for e in sink.events],
            result.summary(),
            result.cumulative_bytes,
        )

    # The fleet takes neither tracer nor transport, the gate no
    # transport: every combination a driver's signature allows.
    @pytest.mark.parametrize(
        "driver,traced,use_transport",
        [
            ("list", True, False),
            ("list", False, True),
            ("list", True, True),
            ("stream", False, False),
            ("stream", True, False),
            ("stream", False, True),
            ("stream", True, True),
            ("shard", False, False),
            ("gate", False, False),
            ("gate", True, False),
        ],
    )
    @pytest.mark.parametrize("policy", ["lru", "online-by", "rate-profile"])
    def test_every_event_source_identical(
        self, policy, driver, traced, use_transport
    ):
        """Compiled list, stream, single-shard round-robin and serial
        gate all run the one per-query step: same events (modulo
        ``source``/``shard``), same summary, same series."""
        reference = self._drive("list", policy, False, False)
        assert self._drive(driver, policy, traced, use_transport) == reference
