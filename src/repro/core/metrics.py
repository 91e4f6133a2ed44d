"""Yield-sensitive cache metrics: BYHR and BYU (Section 3, eqs. 1-2).

These are the paper's generalizations of hit rate to the yield model.
The module provides both the closed-form metrics over a known query
distribution and an online estimator that profiles an observed workload
with exponential aging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.units import AnyCost, AnyRawBytes, AnyYield
from repro.errors import CacheError


def byte_yield_hit_rate(
    query_profile: Sequence[Tuple[float, float]],
    size: AnyRawBytes,
    fetch_cost: AnyCost,
) -> float:
    """BYHR (eq. 1): ``sum_j p_j * y_j * f / s^2``.

    Args:
        query_profile: (probability, yield_bytes) per query against the
            object.
        size: Object size ``s`` in bytes.
        fetch_cost: Fetch cost ``f`` (link-weighted bytes).

    The first factor ``sum p*y / s`` is network savings per byte of cache
    per query; the second ``f / s`` prices how expensive a reload would
    be.  Objects with high BYHR are the ones worth keeping.
    """
    _validate_profile(query_profile)
    if size <= 0:
        raise CacheError("object size must be positive")
    if fetch_cost < 0:
        raise CacheError("fetch cost must be non-negative")
    weighted_yield = sum(p * y for p, y in query_profile)
    return weighted_yield * fetch_cost / (size * size)


def byte_yield_utility(
    query_profile: Sequence[Tuple[float, float]], size: AnyRawBytes
) -> float:
    """BYU (eq. 2): ``sum_j p_j * y_j / s``.

    The uniform-network simplification of BYHR, exact when fetch cost is
    proportional to object size (``f = c * s``), which holds for single
    servers, collocated servers, and uniform TCP networks (Section 3).
    """
    _validate_profile(query_profile)
    if size <= 0:
        raise CacheError("object size must be positive")
    return sum(p * y for p, y in query_profile) / size


def _validate_profile(
    query_profile: Sequence[Tuple[float, float]]
) -> None:
    total = 0.0
    for probability, yield_bytes in query_profile:
        if probability < 0:
            raise CacheError("query probabilities must be non-negative")
        if yield_bytes < 0:
            raise CacheError("query yields must be non-negative")
        total += probability
    if total > 1.0 + 1e-9:
        raise CacheError("query probabilities must sum to at most 1")


@dataclass
class ObjectProfile:
    """Aged access statistics for one object."""

    size: AnyRawBytes
    fetch_cost: AnyCost
    weighted_yield: float = 0.0  # aged sum of per-access yields
    weight: float = 0.0          # aged access count
    accesses: int = 0


class WorkloadProfiler:
    """Online BYHR/BYU estimation over an observed reference stream.

    Probabilities are estimated by exponentially-aged frequency counts:
    on every access to object ``i`` with yield ``y``, all profiles decay
    by ``decay`` and object ``i`` gains weight 1 and yield mass ``y``.
    The estimated per-query expected yield for object ``i`` is then
    ``weighted_yield_i / total_weight``, giving::

        BYU_i  ~= weighted_yield_i / (total_weight * s_i)
        BYHR_i ~= BYU_i * f_i / s_i

    The profiler keeps metadata for *all* referenced objects (like the
    rate-based algorithm), with pruning to bound the footprint.
    """

    def __init__(self, decay: float = 0.999, max_objects: int = 10000) -> None:
        if not 0.0 < decay <= 1.0:
            raise CacheError("decay must be in (0, 1]")
        if max_objects <= 0:
            raise CacheError("max_objects must be positive")
        self._decay = decay
        self._max_objects = max_objects
        self._profiles: Dict[str, ObjectProfile] = {}
        self._total_weight = 0.0

    def observe(
        self,
        object_id: str,
        yield_bytes: AnyYield,
        size: AnyRawBytes,
        fetch_cost: AnyCost,
    ) -> None:
        """Record one access to ``object_id`` yielding ``yield_bytes``."""
        self._total_weight = self._total_weight * self._decay + 1.0
        profile = self._profiles.get(object_id)
        if profile is None:
            if len(self._profiles) >= self._max_objects:
                self._prune()
            profile = ObjectProfile(size=size, fetch_cost=fetch_cost)
            self._profiles[object_id] = profile
        # Lazy decay: store the un-decayed epoch weight per object would
        # be fancier; with modest object universes, direct decay of the
        # touched profile against the shared total keeps the math simple.
        profile.weighted_yield = profile.weighted_yield * self._decay + (
            yield_bytes
        )
        profile.weight = profile.weight * self._decay + 1.0
        profile.accesses += 1
        profile.size = size
        profile.fetch_cost = fetch_cost

    def byu(self, object_id: str) -> float:
        """Estimated BYU for one object (0 when never observed)."""
        profile = self._profiles.get(object_id)
        if profile is None or self._total_weight == 0:
            return 0.0
        return profile.weighted_yield / (self._total_weight * profile.size)

    def byhr(self, object_id: str) -> float:
        """Estimated BYHR for one object (0 when never observed)."""
        profile = self._profiles.get(object_id)
        if profile is None:
            return 0.0
        return self.byu(object_id) * profile.fetch_cost / profile.size

    def ranked_by_byhr(self) -> List[Tuple[str, float]]:
        """Objects best-first by estimated BYHR."""
        ranked = [
            (object_id, self.byhr(object_id))
            for object_id in self._profiles
        ]
        ranked.sort(key=lambda item: item[1], reverse=True)
        return ranked

    def tracked_objects(self) -> int:
        return len(self._profiles)

    def _prune(self) -> None:
        """Drop the weakest tenth of profiles to bound metadata."""
        ranked = self.ranked_by_byhr()
        drop = max(1, len(ranked) // 10)
        for object_id, _ in ranked[-drop:]:
            del self._profiles[object_id]
