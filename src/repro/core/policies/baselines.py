"""Baseline policies the paper compares against.

* :class:`NoCachePolicy` — SkyQuery as-is; every query bypasses (its
  cumulative cost is the "sequence cost").
* :class:`GreedyDualSizePolicy` — classical *in-line* web caching (GDS):
  every miss loads the object; eviction by the Greedy-Dual-Size utility
  ``H = L + cost/size`` with inflation.  This is the paper's "GDS
  (without bypass)" comparator and performs poorly on database workloads
  because it pays whole-object loads for small-yield queries.
* :class:`LRUPolicy` — least-recently-used over variable-size objects,
  in-line.
* :class:`StaticPolicy` — optimal-static caching: a fixed, offline-chosen
  object set; no loads, no evictions (the paper's sanity-check line).
* :class:`SemanticCachePolicy` — caches whole query results keyed by
  SQL text (exact-match semantic caching); demonstrates why result reuse
  fails on scientific workloads (Section 6.1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set

from repro.core.events import CacheQuery, Decision, ObjectRequest
from repro.core.policies.base import CachePolicy
from repro.core.units import AnyRawBytes
from repro.core.victimheap import VictimHeap
from repro.errors import CacheError


class NoCachePolicy(CachePolicy):
    """Always bypass; the federation's behaviour without any cache."""

    name = "no-cache"
    supports_bypass = True

    def __init__(self, capacity_bytes: AnyRawBytes = 1) -> None:
        super().__init__(capacity_bytes)

    def decide(self, query: CacheQuery) -> Decision:
        return Decision(served_from_cache=False)


class _InlineObjectPolicy(CachePolicy):
    """Shared machinery for in-line (no-bypass) object caches.

    On every query the policy tries to make all referenced objects
    resident, loading each miss and evicting by the subclass's utility
    order.  Only objects larger than the whole cache are left uncached
    (those queries bypass out of physical necessity).

    Victim selection is O(log n) amortized: each subclass keeps its
    utility order in a shared :class:`~repro.core.victimheap.VictimHeap`
    (``self._victims``) whose keys encode the exact scan order —
    including tie-breaks — of the full-scan implementations they
    replaced, so decisions are byte-identical.
    """

    supports_bypass = False

    def __init__(self, capacity_bytes: AnyRawBytes) -> None:
        super().__init__(capacity_bytes)
        self._victims = VictimHeap()

    def decide(self, query: CacheQuery) -> Decision:
        loads: List[str] = []
        evictions: List[str] = []
        protected = {req.object_id for req in query.objects}
        for request in query.objects:
            if request.object_id in self.store:
                self._touch(request)
                continue
            if not self.store.fits(request.size):
                continue
            while not self.store.has_room(request.size):
                victim = self._choose_victim(protected)
                if victim is None:
                    break
                self.store.remove(victim)
                self._forget(victim)
                evictions.append(victim)
            if not self.store.has_room(request.size):
                continue
            self.store.add(request.object_id, request.size)
            self._admit(request)
            loads.append(request.object_id)
        served = all(
            request.object_id in self.store for request in query.objects
        )
        return Decision(
            served_from_cache=served, loads=loads, evictions=evictions
        )

    def _touch(self, request: ObjectRequest) -> None:
        raise NotImplementedError

    def _admit(self, request: ObjectRequest) -> None:
        raise NotImplementedError

    def _forget(self, object_id: str) -> None:
        raise NotImplementedError

    def _choose_victim(self, protected: Set[str]) -> Optional[str]:
        return self._victims.select_min(protected)

    def _drop(self, object_id: str) -> None:
        # Invalidation must not age the cache (unlike an eviction, the
        # object did not lose a utility comparison), so bypass _forget's
        # side effects where they exist.
        self.store.remove(object_id)
        self._forget_quietly(object_id)

    def _forget_quietly(self, object_id: str) -> None:
        self._forget(object_id)


class GreedyDualSizePolicy(_InlineObjectPolicy):
    """Greedy-Dual-Size: utility ``H = L + fetch_cost / size``.

    Victim order: ascending ``(H, object_id)`` — the heap key mirrors
    the ``min((value, object_id))`` scan it replaced.
    """

    name = "gds"

    def __init__(self, capacity_bytes: AnyRawBytes) -> None:
        super().__init__(capacity_bytes)
        self._inflation = 0.0
        self._h_values: Dict[str, float] = {}

    def h_value(self, object_id: str) -> float:
        try:
            return self._h_values[object_id]
        except KeyError:
            raise CacheError(f"{object_id!r} is not cached") from None

    def _utility(self, request: ObjectRequest) -> float:
        return self._inflation + request.fetch_cost / request.size

    def _touch(self, request: ObjectRequest) -> None:
        value = self._utility(request)
        self._h_values[request.object_id] = value
        self._victims.set(request.object_id, (value, request.object_id))

    def _admit(self, request: ObjectRequest) -> None:
        self._touch(request)

    def _forget(self, object_id: str) -> None:
        value = self._h_values.pop(object_id, None)
        if value is not None:
            # Greedy-Dual aging: inflation rises to the evicted utility.
            self._inflation = max(self._inflation, value)
        self._victims.discard(object_id)

    def _forget_quietly(self, object_id: str) -> None:
        self._h_values.pop(object_id, None)
        self._victims.discard(object_id)


class LRUPolicy(_InlineObjectPolicy):
    """Least-recently-used over variable-size objects, in-line.

    Victim order: ascending last-touch sequence number (unique, so no
    tie-break is needed) — identical to walking the recency list from
    its cold end.
    """

    name = "lru"

    def __init__(self, capacity_bytes: AnyRawBytes) -> None:
        super().__init__(capacity_bytes)
        self._clock = 0

    def _touch(self, request: ObjectRequest) -> None:
        self._clock += 1
        self._victims.set(request.object_id, self._clock)

    def _admit(self, request: ObjectRequest) -> None:
        self._touch(request)

    def _forget(self, object_id: str) -> None:
        self._victims.discard(object_id)


class StaticPolicy(CachePolicy):
    """Optimal-static caching: a fixed object set chosen offline.

    Queries fully covered by the set are served from cache; everything
    else bypasses.  No loads or evictions ever happen (initial population
    is free by default, matching the paper's use of static caching as a
    performance sanity check).
    """

    name = "static"

    def __init__(
        self,
        capacity_bytes: AnyRawBytes,
        objects: Dict[str, int],
    ) -> None:
        """Args:
            capacity_bytes: Cache size; the set must fit.
            objects: object_id -> size in bytes.
        """
        super().__init__(capacity_bytes)
        for object_id, size in objects.items():
            self.store.add(object_id, size)

    def decide(self, query: CacheQuery) -> Decision:
        served = all(
            request.object_id in self.store for request in query.objects
        )
        return Decision(served_from_cache=served)


class SemanticCachePolicy(CachePolicy):
    """Exact-match semantic (query-result) caching with LRU eviction.

    A query hits only when its exact SQL text was cached earlier — the
    workload-based stand-in for result reuse.  Section 6.1 predicts (and
    our Figure 4 analysis confirms) that scientific workloads give this
    almost no hits.
    """

    name = "semantic"

    def __init__(self, capacity_bytes: AnyRawBytes) -> None:
        super().__init__(capacity_bytes)
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def decide(self, query: CacheQuery) -> Decision:
        key = f"q:{query.sql}"
        if key in self.store:
            self._order.move_to_end(key)
            return Decision(served_from_cache=True)
        size = max(1, query.yield_bytes)
        evictions: List[str] = []
        if self.store.fits(size):
            while not self.store.has_room(size):
                victim, _ = self._order.popitem(last=False)
                self.store.remove(victim)
                evictions.append(victim)
            self.store.add(key, size)
            self._order[key] = None
        # Admitting a result costs no extra WAN traffic (it passed through
        # the mediator anyway) so loads stay empty; the query itself is a
        # bypass.
        return Decision(served_from_cache=False, evictions=evictions)

    def process(self, query: CacheQuery) -> Decision:
        # Semantic hits do not require object residency; skip the
        # object-residency audit in the base class.
        self.queries_seen += 1
        decision = self.decide(query)
        if decision.served_from_cache:
            self.queries_served += 1
        return decision

    def invalidate(self, object_id: str) -> bool:
        """Flush every cached result.

        A result cache cannot map a changed database object back to the
        individual results that depend on it without full provenance
        tracking, so invalidation is conservative: everything goes.
        """
        had_entries = len(self.store) > 0
        self.store.clear()
        self._order.clear()
        return had_entries
