"""Shared victim-selection heaps for the per-query decision hot path.

Every replacement policy answers the same question many times per
query: *which resident object currently has the least utility?*  The
seed implementation answered it with a full scan (or sort) of the
resident set — O(n) to O(n log n) per eviction, which dominates replay
time once caches hold 10^4+ objects.

:class:`VictimHeap` answers it in O(log n) amortized with the standard
**lazy-deletion** technique: every priority update pushes a fresh heap
entry and records the object's *current* key in a side table; entries
whose key no longer matches the table (the object was re-prioritized,
evicted, or invalidated) are stale and are discarded when they surface
at the heap top.  Selection therefore never trusts an entry without
re-validating it against live state, which is what keeps decisions
byte-identical to the exact scans they replace: the pop order over live
entries is exactly ascending key order, and each policy encodes its
scan's tie-breaking rule into the key itself (for example a trailing
object id).

The heap is policy-agnostic: keys are opaque orderable values.  Users:

* LRU/GDS victim choice in
  :mod:`repro.core.policies.baselines`;
* Landlord eviction order in :mod:`repro.core.object_cache` (with the
  global-offset trick making survivor aging O(1));
* the per-epoch candidate heap in
  :mod:`repro.core.policies.rate_profile`.
"""

from __future__ import annotations

import heapq
from typing import Any, Container, Dict, List, Optional, Tuple

__all__ = ["VictimHeap"]


#: Sentinel distinguishing "no key recorded" from any real key.
_MISSING = object()

#: Compaction threshold: rebuild once stale entries outnumber live ones
#: by this factor (and the heap is big enough for it to matter).
_COMPACT_FACTOR = 4
_COMPACT_MIN = 64


class VictimHeap:
    """Lazy-deletion min-heap from object ids to orderable keys.

    The mapping semantics are those of a dict (one live key per object
    id); the heap gives O(log n) access to the minimum *live* entry.
    Keys must be mutually orderable; encode tie-breaks explicitly in
    the key (the trailing object id in each heap entry only breaks
    exact key collisions, mirroring tuple-scan behaviour).
    """

    __slots__ = ("_heap", "_keys")

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, str]] = []
        self._keys: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._keys

    def key_of(self, object_id: str) -> Any:
        """The object's current key (KeyError when absent)."""
        return self._keys[object_id]

    def set(self, object_id: str, key: Any) -> None:
        """Insert or re-prioritize an object.

        Previous entries for the object become stale and are skipped
        (and dropped) when they reach the heap top.
        """
        self._keys[object_id] = key
        heapq.heappush(self._heap, (key, object_id))
        if len(self._heap) > _COMPACT_MIN and len(self._heap) > (
            _COMPACT_FACTOR * len(self._keys)
        ):
            self._compact()

    def discard(self, object_id: str) -> None:
        """Forget an object (its heap entries become stale)."""
        self._keys.pop(object_id, None)

    def clear(self) -> None:
        self._heap.clear()
        self._keys.clear()

    def _live(self, entry: Tuple[Any, str]) -> bool:
        key, object_id = entry
        return self._keys.get(object_id, _MISSING) == key

    def _compact(self) -> None:
        self._heap = [
            (key, object_id) for object_id, key in self._keys.items()
        ]
        heapq.heapify(self._heap)

    def pop_min(self) -> Optional[Tuple[Any, str]]:
        """Remove and return the minimum live ``(key, object_id)``.

        Returns None when no live entries remain.  Stale entries
        encountered on the way are discarded.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if self._live(entry):
                del self._keys[entry[1]]
                return entry
        return None

    def select_min(self, skip: Container[str] = ()) -> Optional[str]:
        """The live object with the minimum key, ignoring ``skip``.

        Non-destructive: the mapping is unchanged (the caller evicts
        via :meth:`discard` if it acts on the answer).  Live entries
        popped while searching — including any skipped ones — are
        pushed back; stale entries are dropped.
        """
        heap = self._heap
        stash: List[Tuple[Any, str]] = []
        winner: Optional[str] = None
        while heap:
            entry = heapq.heappop(heap)
            if not self._live(entry):
                continue
            stash.append(entry)
            if entry[1] in skip:
                continue
            winner = entry[1]
            break
        for entry in stash:
            heapq.heappush(heap, entry)
        return winner
