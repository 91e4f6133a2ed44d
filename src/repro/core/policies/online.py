"""OnlineBY and SpaceEffBY (Section 5) — competitive bypass-yield caching.

**OnlineBY** (Figure 2) keeps a BYU accumulator per object.  Each query
adds ``y_ij / s_i`` to the accumulator of every object it references;
when an accumulator reaches 1 (a whole object's worth of yield has
passed), a full-object request is generated for the bypass-object
algorithm ``A_obj``, which applies its own rent-to-buy admission and
Landlord eviction.  The query is served from cache iff its objects are
resident, bypassed otherwise.  With an α-competitive ``A_obj`` the result
is (4α+2)-competitive (Theorem 5.1).

**SpaceEffBY** (Figure 3) replaces the accumulators with randomization:
each reference generates the object request with probability
``y_ij / s_i``.  Expected behaviour matches OnlineBY at O(1) extra space.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.events import CacheQuery, Decision, ObjectRequest
from repro.core.object_cache import BypassObjectCache
from repro.core.policies.base import CachePolicy
from repro.core.units import AnyRawBytes


class OnlineBYPolicy(CachePolicy):
    """The deterministic competitive algorithm (Figure 2).

    Args:
        capacity_bytes: Cache size.
        admission: Admission rule for the inner bypass-object cache
            (``"rent-to-buy"`` per the paper, or ``"eager"`` for the
            load-on-first-object-request ablation).
    """

    name = "online-by"

    def __init__(
        self, capacity_bytes: AnyRawBytes, admission: str = "rent-to-buy"
    ) -> None:
        super().__init__(capacity_bytes)
        self.object_cache = BypassObjectCache(
            self.store, admission=admission
        )
        self._byu: Dict[str, float] = {}
        self.object_requests_generated = 0

    def byu_accumulator(self, object_id: str) -> float:
        """Current accumulator value (0 when never referenced)."""
        return self._byu.get(object_id, 0.0)

    def decide(self, query: CacheQuery) -> Decision:
        loads: List[str] = []
        evictions: List[str] = []
        for request in query.objects:
            accumulated = self._byu.get(request.object_id, 0.0)
            accumulated += request.yield_bytes / request.size
            # The epsilon guards against float drift: n yields of s/n
            # bytes must cross the threshold after exactly n queries.
            if accumulated >= 1.0 - 1e-9:
                accumulated = max(0.0, accumulated - 1.0)
                self._generate(request, loads, evictions)
            self._byu[request.object_id] = accumulated
        served = all(
            request.object_id in self.store for request in query.objects
        )
        return Decision(
            served_from_cache=served, loads=loads, evictions=evictions
        )

    def _generate(
        self,
        request: ObjectRequest,
        loads: List[str],
        evictions: List[str],
    ) -> None:
        """Feed one whole-object request to A_obj."""
        self.object_requests_generated += 1
        outcome = self.object_cache.request(
            request.object_id, request.size, request.fetch_cost
        )
        if outcome.loaded:
            loads.append(request.object_id)
        evictions.extend(outcome.evicted)

    def _drop(self, object_id: str) -> None:
        self.object_cache.evict(object_id)
        self._byu.pop(object_id, None)


class SpaceEffBYPolicy(CachePolicy):
    """The randomized minimal-space algorithm (Figure 3).

    Args:
        capacity_bytes: Cache size.
        seed: RNG seed; runs are reproducible for a fixed seed.
    """

    name = "space-eff-by"

    def __init__(self, capacity_bytes: AnyRawBytes, seed: int = 17) -> None:
        super().__init__(capacity_bytes)
        self.object_cache = BypassObjectCache(self.store)
        self._rng = random.Random(seed)
        self.object_requests_generated = 0

    def decide(self, query: CacheQuery) -> Decision:
        loads: List[str] = []
        evictions: List[str] = []
        for request in query.objects:
            probability = min(1.0, request.yield_bytes / request.size)
            if probability > 0 and self._rng.random() < probability:
                self.object_requests_generated += 1
                outcome = self.object_cache.request(
                    request.object_id, request.size, request.fetch_cost
                )
                if outcome.loaded:
                    loads.append(request.object_id)
                evictions.extend(outcome.evicted)
        served = all(
            request.object_id in self.store for request in query.objects
        )
        return Decision(
            served_from_cache=served, loads=loads, evictions=evictions
        )

    def _drop(self, object_id: str) -> None:
        self.object_cache.evict(object_id)
