"""Consistent-hash partitioning of the object catalog across shards.

The ring places ``replicas`` virtual nodes per shard on the unit
interval and assigns each object key to the first virtual node at or
after the key's own position (wrapping at 1.0).  Every position is a
:func:`repro.faults.engine.uniform_draw` — a SHA-256 hash keyed by
``(seed, label, …)`` — so the layout depends only on ``(seed, shard
names, replicas)``, never on insertion order, process identity, or how
many draws happened before.  The same seed therefore yields the same
assignment in every worker process, and adding or removing a shard
moves only the keys whose successor changed: other shards' virtual
nodes never move, bounding churn to ~K/N of K keys on an N-shard ring.

Lookup is an ``O(log V)`` bisect over the sorted virtual-node
positions (V = shards × replicas); the perf benchmark times it as the
``fleet.ring_lookup`` layer of its ``fleet_faults`` workload.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import CacheError
from repro.faults.engine import uniform_draw

#: Virtual nodes per shard.  Enough that the largest/smallest shard
#: ownership differs by well under 2x in expectation.
DEFAULT_REPLICAS = 64


class ConsistentHashRing:
    """Seeded consistent-hash ring over named shards.

    Args:
        shards: Shard (proxy) names; must be unique and non-empty.
        seed: Determinism seed for every hash position.
        replicas: Virtual nodes per shard (load-spread knob).
    """

    def __init__(
        self,
        shards: Sequence[str],
        seed: int = 0,
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        names = list(shards)
        if not names:
            raise CacheError("a hash ring needs at least one shard")
        if len(set(names)) != len(names):
            raise CacheError("shard names must be unique")
        if replicas <= 0:
            raise CacheError("replicas per shard must be positive")
        self._seed = int(seed)
        self._replicas = int(replicas)
        self._shards: List[str] = []
        self._nodes: List[Tuple[float, str]] = []
        self._points: List[float] = []
        for name in names:
            self.add_shard(name)

    # -- layout ----------------------------------------------------------

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def replicas(self) -> int:
        return self._replicas

    @property
    def shards(self) -> Tuple[str, ...]:
        """Current shard names, sorted."""
        return tuple(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

    def _position(self, shard: str, replica: int) -> float:
        return uniform_draw(self._seed, "ring", shard, replica)

    def add_shard(self, shard: str) -> None:
        """Insert ``shard``'s virtual nodes; other shards never move."""
        if shard in self._shards:
            raise CacheError(f"shard {shard!r} is already on the ring")
        insort(self._shards, shard)
        for replica in range(self._replicas):
            insort(self._nodes, (self._position(shard, replica), shard))
        self._reindex()

    def remove_shard(self, shard: str) -> None:
        """Drop ``shard``; its keys remap to their next successors."""
        if shard not in self._shards:
            raise CacheError(f"shard {shard!r} is not on the ring")
        if len(self._shards) == 1:
            raise CacheError("cannot remove the last shard from a ring")
        self._shards.remove(shard)
        self._nodes = [
            node for node in self._nodes if node[1] != shard
        ]
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the bare-position index the hot lookup bisects."""
        self._points = [position for position, _ in self._nodes]

    # -- lookup ----------------------------------------------------------

    def owner(self, key: str) -> str:
        """The shard owning ``key``: first virtual node clockwise."""
        point = uniform_draw(self._seed, "key", key)
        index = bisect_left(self._points, point)
        if index == len(self._points):
            index = 0
        return self._nodes[index][1]

    def assignment(self, keys: Iterable[str]) -> Dict[str, str]:
        """key -> owning shard, for every key."""
        return {key: self.owner(key) for key in keys}

    def partition(self, keys: Iterable[str]) -> Dict[str, List[str]]:
        """shard -> owned keys (every shard present, possibly empty).

        Keys keep their input order within each shard, so a
        deterministic key iteration yields a deterministic partition.
        """
        owned: Dict[str, List[str]] = {
            shard: [] for shard in self._shards
        }
        for key in keys:
            owned[self.owner(key)].append(key)
        return owned
