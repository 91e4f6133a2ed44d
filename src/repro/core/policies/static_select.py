"""Offline object selection for optimal-static caching.

Given a prepared trace, choose the object set that (greedily) maximizes
attributed yield per byte of cache — the populate-once, never-evict
comparator the paper calls *static table caching*.  The greedy knapsack
is within the usual density-greedy bound of optimal and is exact
whenever objects are small relative to capacity (our traces).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.core.units import AnyRawBytes
from repro.errors import CacheError

if TYPE_CHECKING:
    from repro.workload.trace import PreparedQuery


def choose_static_objects(
    object_yields: Dict[str, float],
    object_sizes: Dict[str, int],
    capacity_bytes: AnyRawBytes,
) -> Dict[str, int]:
    """Pick objects by descending yield density until capacity fills.

    Args:
        object_yields: object_id -> total attributed yield over the trace.
        object_sizes: object_id -> size in bytes.
        capacity_bytes: Cache capacity.

    Returns:
        Selected ``{object_id: size}`` fitting within capacity.
    """
    if capacity_bytes <= 0:
        raise CacheError("capacity must be positive")
    ranked: List[Tuple[float, str]] = []
    for object_id, total_yield in object_yields.items():
        size = object_sizes.get(object_id)
        if size is None:
            raise CacheError(f"no size known for {object_id!r}")
        if size <= 0:
            raise CacheError(f"{object_id!r} has non-positive size")
        ranked.append((total_yield / size, object_id))
    ranked.sort(reverse=True)

    chosen: Dict[str, int] = {}
    used = 0
    for density, object_id in ranked:
        if density <= 0:
            break
        size = object_sizes[object_id]
        if used + size <= capacity_bytes:
            chosen[object_id] = size
            used += size
    return chosen


#: Exhaustive selection is exponential; refuse beyond this many objects.
EXACT_SELECTION_LIMIT = 20


def choose_static_objects_exact(
    object_yields: Dict[str, float],
    object_sizes: Dict[str, int],
    capacity_bytes: AnyRawBytes,
) -> Dict[str, int]:
    """Exact knapsack by subset enumeration (small instances only).

    Maximizes total attributed yield subject to capacity.  Intended for
    table-granularity instances (a handful of objects); raises for more
    than :data:`EXACT_SELECTION_LIMIT` candidates.  Note that, like the
    greedy selector, this maximizes *attributed yield mass*, which is the
    right objective when queries mostly touch one object; the benchmark
    harness uses it to bound how much the greedy heuristic leaves on the
    table.
    """
    if capacity_bytes <= 0:
        raise CacheError("capacity must be positive")
    candidates = [
        (object_id, object_sizes[object_id], total_yield)
        for object_id, total_yield in object_yields.items()
        if total_yield > 0
    ]
    for object_id, size, _ in candidates:
        if size <= 0:
            raise CacheError(f"{object_id!r} has non-positive size")
    if len(candidates) > EXACT_SELECTION_LIMIT:
        raise CacheError(
            f"exact selection supports at most {EXACT_SELECTION_LIMIT} "
            f"objects, got {len(candidates)}; use the greedy selector"
        )

    best_yield = -1.0
    best_mask = 0
    count = len(candidates)
    for mask in range(1 << count):
        used = 0
        total = 0.0
        for bit in range(count):
            if mask & (1 << bit):
                used += candidates[bit][1]
                if used > capacity_bytes:
                    break
                total += candidates[bit][2]
        else:
            if used <= capacity_bytes and total > best_yield:
                best_yield = total
                best_mask = mask
    chosen: Dict[str, int] = {}
    for bit in range(count):
        if best_mask & (1 << bit):
            object_id, size, _ = candidates[bit]
            chosen[object_id] = size
    return chosen


def accumulate_object_yields(
    prepared_queries: "Iterable[PreparedQuery]", granularity: str
) -> Dict[str, float]:
    """Sum attributed yields per object over a prepared trace."""
    totals: Dict[str, float] = {}
    for query in prepared_queries:
        for object_id, share in query.object_yields(granularity).items():
            totals[object_id] = totals.get(object_id, 0.0) + share
    return totals
