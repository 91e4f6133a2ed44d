"""Bounded-memory cumulative series for every replay.

A replay need not know its length up front (a stream does not), so
:class:`SampledSeries` keeps the cumulative-WAN series bounded by
*stride doubling*: record every query at first, and whenever the buffer
fills, drop every other point and double the stride.  The result is
always between ``max_points / 2`` and ``max_points`` evenly-strided
points covering the whole run — constant memory for any trace length,
and deterministic (the same inputs produce the same series).  It is the
one ``record_series="sampled"`` recorder: the simulator's replay loop,
the cooperative fleet and the service all use it.
"""

from __future__ import annotations

from typing import List

from repro.errors import CacheError

#: Default retained-point bound: a run of up to 1024 queries keeps every
#: point, a longer one 512-1024 evenly-strided points.
DEFAULT_MAX_POINTS = 1024


class SampledSeries:
    """A cumulative series with a hard point bound and adaptive stride.

    Values are observed once per query; every ``stride``-th observation
    is retained.  When retention would exceed ``max_points``, the series
    halves itself (keeping every second point, which lands exactly on
    the doubled-stride boundaries) and doubles the stride.  Memory is
    O(``max_points``) however many queries stream through.
    """

    def __init__(self, max_points: int = DEFAULT_MAX_POINTS) -> None:
        if max_points < 2:
            raise CacheError("max_points must be at least 2")
        self._max_points = max_points
        # Bounded by max_points — halved in place whenever full, so this
        # never grows with trace length.
        self._points: List[float] = []
        self._stride = 1
        self._since_last = 0
        self._last_value = 0.0
        self._observed = 0

    @property
    def stride(self) -> int:
        """Queries between consecutive retained points."""
        return self._stride

    @property
    def observed(self) -> int:
        """Total observations so far."""
        return self._observed

    def observe(self, value: float) -> None:
        """Record one per-query cumulative value."""
        self._observed += 1
        self._last_value = value
        self._since_last += 1
        if self._since_last < self._stride:
            return
        self._since_last = 0
        self._points.append(value)
        if len(self._points) > self._max_points:
            self._halve()

    def _halve(self) -> None:
        # Keep odd indices: point i sits at query (i + 1) * stride, so
        # indices 1, 3, 5, … land exactly on the doubled-stride
        # boundaries 2s, 4s, 6s, …
        dropped_tail = len(self._points) % 2 == 1
        self._points = self._points[1::2]
        if dropped_tail:
            # The dropped final point's queries now count toward the
            # next (doubled) boundary.
            self._since_last = self._stride
        self._stride *= 2

    def points(self) -> List[float]:
        """The retained series, final value always included.

        The trailing partial stride (if any) contributes one final
        point so the series always ends at the run's closing total —
        matching the classic recorder's ``index == total - 1`` append.
        """
        points = list(self._points)
        if self._observed and (self._since_last or not points):
            points.append(self._last_value)
        return points
