"""The Rate-Profile algorithm (Section 4) — workload-driven bypass-yield
caching.

Cached objects carry a **rate profile** (eq. 3)::

    RP_i = sum_j y_ij / ((t - t_i) * s_i)

the realized rate of network savings per byte of cache over the object's
cache lifetime.  Objects outside the cache carry a **load-adjusted rate**
computed over access *episodes* (eqs. 4-6)::

    LARP_i,e(t) = (sum_j y_ij - f_i) / ((t - tS) * s_i)
    LAR_i,e    = max_t LARP_i,e(t)
    LAR_i      = sum_e w_e * LAR_i,e / sum_e w_e

(the amortized reading of eq. 4; see Episode.larp for why)

with recent episodes weighted more heavily.  Episodes split when the
running LARP falls below ``c * LAR_e`` (rate collapsed after a burst) or
after ``k`` queries of silence (Section 4.3; defaults c=0.5, k=1000).

The bypass decision: a missing object is loaded iff enough cached
objects with RP below its LAR can be evicted to make room (load cost is
charged to the LAR; the RP of cached objects deliberately ignores the
sunk load cost so the cache stays conservative about evicting).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

try:  # Vectorized eviction-candidate ranking; plain Python otherwise.
    import numpy as _np
except ImportError:  # pragma: no cover - depends on environment
    _np = None  # type: ignore[assignment]

from repro.core.events import CacheQuery, Decision, ObjectRequest
from repro.core.policies.base import CachePolicy
from repro.core.units import AnyRawBytes
from repro.errors import CacheError


@dataclass
class Episode:
    """One burst of accesses to an out-of-cache object."""

    start_time: int
    yield_sum: float = 0.0
    best_lar: float = float("-inf")  # max_t LARP(t) within the episode
    last_access: int = 0

    def larp(self, now: int, size: int, fetch_cost: float) -> float:
        """Current load-adjusted rate profile (eq. 4).

        We use the amortized reading ``(sum_j y - f) / ((t - tS) * s)``:
        the rate profile "reduced by the load cost" with consistent
        rate units.  (The inline form printed in the paper, ``rate -
        f/s``, subtracts a dimensionless quantity from a rate and
        contradicts the paper's own observation that LARP increases
        monotonically until the load penalty is overcome; the amortized
        form satisfies both.)
        """
        elapsed = max(1, now - self.start_time)
        return (self.yield_sum - fetch_cost) / (elapsed * size)

    def record(
        self, now: int, yield_bytes: float, size: int, fetch_cost: float
    ) -> float:
        """Add an access; returns the updated running LARP."""
        self.yield_sum += yield_bytes
        self.last_access = now
        value = self.larp(now, size, fetch_cost)
        if value > self.best_lar:
            self.best_lar = value
        return value


@dataclass
class OutsideProfile:
    """Episode history for an object not (currently) in the cache."""

    size: int
    fetch_cost: float
    episode_lars: List[float] = field(default_factory=list)
    current: Optional[Episode] = None
    last_access: int = 0

    def close_current(self, max_episodes: int) -> None:
        if self.current is None:
            return
        if self.current.best_lar > float("-inf"):
            self.episode_lars.append(self.current.best_lar)
            if len(self.episode_lars) > max_episodes:
                del self.episode_lars[0]
        self.current = None

    def lar(self, decay: float) -> float:
        """Expected savings rate (eq. 6): episode LARs, recent-weighted."""
        lars = list(self.episode_lars)
        if self.current is not None and self.current.best_lar > float(
            "-inf"
        ):
            lars.append(self.current.best_lar)
        if not lars:
            return float("-inf")
        weighted = 0.0
        total = 0.0
        weight = 1.0
        for value in reversed(lars):  # most recent first
            weighted += weight * value
            total += weight
            weight *= decay
        return weighted / total


@dataclass
class CachedProfile:
    """Rate-profile state for a resident object (eq. 3)."""

    size: int
    fetch_cost: float
    load_time: int
    yield_sum: float = 0.0

    def rate_profile(self, now: int) -> float:
        elapsed = max(1, now - self.load_time)
        return self.yield_sum / (elapsed * self.size)


class RateProfilePolicy(CachePolicy):
    """Workload-driven bypass-yield caching (the paper's Rate-Profile).

    Args:
        capacity_bytes: Cache size.
        episode_cut: The ``c`` of Section 4.3 — episodes end when LARP
            drops below ``c * LAR_e``.
        idle_cut: The ``k`` of Section 4.3 — episodes end after this many
            queries without an access.
        episode_decay: Weight ratio between consecutive episodes in the
            LAR average (recent episodes weigh more).
        max_episodes: Episode LARs retained per object (pruning).
        max_tracked: Out-of-cache objects profiled at once (pruning).
    """

    name = "rate-profile"

    def __init__(
        self,
        capacity_bytes: AnyRawBytes,
        episode_cut: float = 0.5,
        idle_cut: int = 1000,
        episode_decay: float = 0.6,
        max_episodes: int = 8,
        max_tracked: int = 20000,
    ) -> None:
        super().__init__(capacity_bytes)
        if not 0.0 <= episode_cut <= 1.0:
            raise CacheError("episode_cut must be within [0, 1]")
        if idle_cut <= 0:
            raise CacheError("idle_cut must be positive")
        if not 0.0 < episode_decay <= 1.0:
            raise CacheError("episode_decay must be in (0, 1]")
        if max_episodes <= 0 or max_tracked <= 0:
            raise CacheError("pruning limits must be positive")
        self.episode_cut = episode_cut
        self.idle_cut = idle_cut
        self.episode_decay = episode_decay
        self.max_episodes = max_episodes
        self.max_tracked = max_tracked
        self._time = 0
        self._cached: Dict[str, CachedProfile] = {}
        self._outside: Dict[str, OutsideProfile] = {}
        # Flat mirrors of the per-resident rate inputs (yield sum, load
        # time, size), always keyed in ``self._cached`` order, so the
        # per-epoch candidate ranking can be vectorized instead of
        # touching 10^4 profile objects per query.
        self._plan_y: Dict[str, float] = {}
        self._plan_l: Dict[str, float] = {}
        self._plan_s: Dict[str, float] = {}
        # Eviction-candidate cursor: rate profiles vary with time, so
        # ranks are only stable *within* one query epoch.  The ascending
        # (rate, object_id) order is built once per epoch and shared by
        # every missing object in the query; ``_plan_pos`` advances past
        # consumed candidates (evicted victims, protected ids) and
        # rewinds on failed plans.
        self._plan_epoch = -1
        self._plan_pos = 0
        self._plan_rates: Sequence[float] = ()
        self._plan_oids: List[str] = []
        self._plan_order: Optional[Any] = None
        # Equal-rate runs left by the stable argsort, fixed up to the
        # scan's object-id tie-break lazily — only when the cursor
        # actually reaches a run.
        self._plan_run_starts: List[int] = []
        self._plan_run_ends: List[int] = []
        self._plan_run_idx = 0

    # -- introspection (used heavily by tests) --------------------------

    def rate_profile(self, object_id: str) -> float:
        profile = self._cached.get(object_id)
        if profile is None:
            raise CacheError(f"{object_id!r} is not cached")
        return profile.rate_profile(self._time)

    def load_adjusted_rate(self, object_id: str) -> float:
        profile = self._outside.get(object_id)
        if profile is None:
            return float("-inf")
        return profile.lar(self.episode_decay)

    def tracked_outside(self) -> int:
        return len(self._outside)

    # -- decision logic ---------------------------------------------------

    def decide(self, query: CacheQuery) -> Decision:
        self._time += 1
        now = self._time
        missing = [
            req for req in query.objects if req.object_id not in self.store
        ]
        for request in missing:
            self._observe_outside(request, now)

        loads: List[str] = []
        evictions: List[str] = []
        protected = {req.object_id for req in query.objects}
        for request in missing:
            victims = self._plan_load(request, protected)
            if victims is None:
                continue
            for victim in victims:
                self._evict(victim, now)
                evictions.append(victim)
            self._load(request, now)
            loads.append(request.object_id)

        served = all(
            req.object_id in self.store for req in query.objects
        )
        if served:
            for request in query.objects:
                profile = self._cached[request.object_id]
                profile.yield_sum += request.yield_bytes
                self._plan_y[request.object_id] = profile.yield_sum
        return Decision(
            served_from_cache=served, loads=loads, evictions=evictions
        )

    # -- internals ---------------------------------------------------------

    def _observe_outside(self, request: ObjectRequest, now: int) -> None:
        profile = self._outside.get(request.object_id)
        if profile is None:
            if len(self._outside) >= self.max_tracked:
                self._prune_outside()
            profile = OutsideProfile(
                size=request.size, fetch_cost=request.fetch_cost
            )
            self._outside[request.object_id] = profile
        profile.size = request.size
        profile.fetch_cost = request.fetch_cost

        episode = profile.current
        if episode is not None and now - episode.last_access > self.idle_cut:
            # Rule 2: too long silent — the episode is over.
            profile.close_current(self.max_episodes)
            episode = None
        if episode is None:
            episode = Episode(start_time=now - 1, last_access=now)
            profile.current = episode
        larp = episode.record(
            now, request.yield_bytes, request.size, request.fetch_cost
        )
        # Rule 1: the rate collapsed well below the episode's peak.
        if (
            episode.best_lar > 0
            and larp < self.episode_cut * episode.best_lar
        ):
            profile.close_current(self.max_episodes)
            fresh = Episode(start_time=now - 1, last_access=now)
            fresh.record(
                now, request.yield_bytes, request.size, request.fetch_cost
            )
            profile.current = fresh
        profile.last_access = now

    def _plan_load(
        self, request: ObjectRequest, protected: set
    ) -> Optional[List[str]]:
        """Victims to evict so ``request`` can be loaded, or None to
        bypass.

        Loads happen only when the candidate's LAR is positive (expected
        net savings) and every needed victim has a lower current RP.
        """
        if not self.store.fits(request.size):
            return None
        lar = self.load_adjusted_rate(request.object_id)
        if lar <= 0:
            return None
        needed = request.size - self.store.free_bytes
        if needed <= 0:
            return []
        if self._plan_epoch != self._time:
            self._rank_candidates()
        # The cursor walks ascending (rate, object_id) exactly as the
        # per-call sorted scan did: protected ids are skipped (the scan
        # excluded them), ids evicted earlier this query are stale, and
        # the position only sticks when the plan succeeds — victims are
        # then evicted, so nothing consumable is ever skipped over.
        rates = self._plan_rates
        total = len(rates)
        pos = self._plan_pos
        start = pos
        victims: List[str] = []
        freed = 0
        run_starts = self._plan_run_starts
        while pos < total:
            while (
                self._plan_run_idx < len(run_starts)
                and pos >= run_starts[self._plan_run_idx]
            ):
                self._fix_run(self._plan_run_idx)
                self._plan_run_idx += 1
            object_id = self._plan_oid(pos)
            if object_id in protected or object_id not in self._cached:
                pos += 1
                continue
            if rates[pos] >= lar:
                break
            victims.append(object_id)
            freed += self.store.size_of(object_id)
            pos += 1
            if freed >= needed:
                self._plan_pos = pos
                return victims
        # Not enough evictable bytes below the LAR: rewind so later
        # missing objects see the full candidate set.
        self._plan_pos = start
        return None

    def _plan_oid(self, pos: int) -> str:
        if self._plan_order is None:
            return self._plan_oids[pos]
        return self._plan_oids[self._plan_order[pos]]

    def _rank_candidates(self) -> None:
        """Rank this epoch's eviction candidates ascending by rate.

        Sanctioned full scan: runs once per query epoch, not per
        missing object.  The vectorized path computes the same IEEE-754
        doubles as :meth:`CachedProfile.rate_profile` — ``elapsed *
        size`` rounds the exact product once either way — and restores
        the sorted scan's object-id tie-break by reordering equal-rate
        runs.
        """
        self._plan_epoch = self._time
        self._plan_pos = 0
        ids = list(self._cached)
        count = len(ids)
        if _np is None or count < 512:
            entries = sorted(  # repro-lint: allow[RPR005]
                (self._cached[oid].rate_profile(self._time), oid)
                for oid in ids
            )
            self._plan_rates = [entry[0] for entry in entries]
            self._plan_oids = [entry[1] for entry in entries]
            self._plan_order = None
            self._plan_run_starts = []
            self._plan_run_ends = []
            self._plan_run_idx = 0
            return
        yields = _np.fromiter(
            self._plan_y.values(), _np.float64, count=count
        )
        loads = _np.fromiter(
            self._plan_l.values(), _np.float64, count=count
        )
        sizes = _np.fromiter(
            self._plan_s.values(), _np.float64, count=count
        )
        elapsed = _np.maximum(self._time - loads, 1.0)
        rates = yields / (elapsed * sizes)
        order = _np.argsort(rates, kind="stable")
        ranked = rates[order]
        # Stable argsort breaks rate ties by insertion order; the scan
        # this replaces broke them by object id.  Equal doubles are
        # exactly detectable; record the runs and let the cursor fix
        # each one up the first time it gets there (a run the cursor
        # never reaches never needed its tie-break resolved).
        ties = _np.flatnonzero(ranked[1:] == ranked[:-1])
        if ties.size:
            breaks = _np.flatnonzero(_np.diff(ties) > 1)
            first = _np.concatenate(([0], breaks + 1))
            last = _np.concatenate((breaks, [ties.size - 1]))
            self._plan_run_starts = ties[first].tolist()
            self._plan_run_ends = (ties[last] + 1).tolist()
        else:
            self._plan_run_starts = []
            self._plan_run_ends = []
        self._plan_run_idx = 0
        self._plan_rates = ranked
        self._plan_oids = ids
        self._plan_order = order

    def _fix_run(self, run: int) -> None:
        """Reorder one equal-rate run of positions by object id."""
        start = self._plan_run_starts[run]
        stop = self._plan_run_ends[run] + 1
        order = self._plan_order
        assert order is not None
        segment = order[start:stop].tolist()
        segment.sort(key=self._plan_oids.__getitem__)
        order[start:stop] = segment

    def _load(self, request: ObjectRequest, now: int) -> None:
        self.store.add(request.object_id, request.size)
        self._cached[request.object_id] = CachedProfile(
            size=request.size,
            fetch_cost=request.fetch_cost,
            load_time=now,
        )
        self._plan_y[request.object_id] = 0.0
        self._plan_l[request.object_id] = float(now)
        self._plan_s[request.object_id] = float(request.size)
        # Its outside profile pauses while resident; the current episode
        # is closed so a later eviction starts cleanly.
        profile = self._outside.get(request.object_id)
        if profile is not None:
            profile.close_current(self.max_episodes)

    def _evict(self, object_id: str, now: int) -> None:
        self.store.remove(object_id)
        self._cached.pop(object_id, None)
        self._plan_y.pop(object_id, None)
        self._plan_l.pop(object_id, None)
        self._plan_s.pop(object_id, None)

    def _drop(self, object_id: str) -> None:
        self._evict(object_id, self._time)

    def _prune_outside(self) -> None:
        """Drop the stalest tenth of outside profiles.

        ``heapq.nsmallest`` is documented equivalent to
        ``sorted(...)[:n]`` (ties keep iteration order), but runs in
        O(n log drop) instead of sorting all tracked profiles.
        """
        drop = max(1, len(self._outside) // 10)
        stalest = heapq.nsmallest(
            drop,
            self._outside.items(),
            key=lambda item: item[1].last_access,
        )
        for object_id, _ in stalest:
            del self._outside[object_id]
