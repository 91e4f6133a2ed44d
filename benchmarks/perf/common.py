"""Shared pieces of the benchmark harness: totals, checks, statistics."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Sequence

#: How many times set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Every run has at least this many timed rounds.
MIN_ROUNDS = 3


@dataclass
class Check:
    """One output check; a failed check fails the run."""

    name: str
    ok: bool
    detail: str = ""


def check_equal(name: str, left: Any, right: Any) -> Check:
    return Check(name, left == right, f"{left!r} vs {right!r}")


#: The exactly-comparable accounting of one or more replays.
Totals = Dict[str, int]

TOTAL_KEYS = (
    "queries",
    "wan_bytes",
    "load_bytes",
    "bypass_bytes",
    "retry_bytes",
    "peer_bytes",
    "served",
    "loads",
    "evictions",
    "retries",
)


def totals_of(results: Iterable[Any]) -> Totals:
    """Sum ``SimulationResult``s into integer totals.

    Byte totals in this repo are integral floats, so the sums compare
    exactly between the untraced run, the traced run and the reference
    replays.
    """
    totals = dict.fromkeys(TOTAL_KEYS, 0)
    for result in results:
        breakdown = result.breakdown
        totals["queries"] += result.queries
        totals["wan_bytes"] += round(result.total_bytes)
        totals["load_bytes"] += round(breakdown.load_bytes)
        totals["bypass_bytes"] += round(breakdown.bypass_bytes)
        totals["retry_bytes"] += round(breakdown.retry_bytes)
        totals["peer_bytes"] += round(breakdown.peer_bytes)
        totals["served"] += result.served_queries
        totals["loads"] += result.loads
        totals["evictions"] += result.evictions
        totals["retries"] += result.retries
    return totals


def result_checks(label: str, results: Sequence[Any], expected: int) -> List[Check]:
    """The per-result conservation checks every replay must pass."""
    checks = []
    for position, result in enumerate(results):
        breakdown = result.breakdown
        parts = (
            breakdown.bypass_bytes
            + breakdown.load_bytes
            + breakdown.retry_bytes
        )
        checks.append(
            Check(
                f"{label}[{position}].queries",
                result.queries == expected,
                f"{result.queries} vs {expected}",
            )
        )
        checks.append(
            Check(
                f"{label}[{position}].bypass+fetch+retry==total",
                parts == result.total_bytes,
                f"{parts} vs {result.total_bytes}",
            )
        )
    return checks


@dataclass
class Round:
    """One timed round of fixed work."""

    queries: int
    wall_s: float
    totals: Totals
    latencies_ms: List[float] = field(default_factory=list)
    failed: int = 0
    checks: List[Check] = field(default_factory=list)
    #: Small facts for the result document.
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Per-unit series the traced run reads (too long for the document).
    samples: Dict[str, List[float]] = field(default_factory=dict)


class Heartbeat:
    """Slice timing for replay loops the benchmark does not own.

    Every replay driver calls ``policy.process`` exactly once per
    query, so wrapping that one bound method on the policy *instance*
    gives a per-query tick from outside, whatever loop is running.
    The clock is read once every ``every`` ticks; the gaps between
    reads are the slice latencies.
    """

    def __init__(self, every: int) -> None:
        self.every = every
        self.stamps: List[float] = []
        self._ticks = 0

    def wrap(self, policy: Any) -> Any:
        inner = policy.process
        every = self.every
        stamps = self.stamps

        def process(query: Any) -> Any:
            self._ticks += 1
            if self._ticks % every == 0:
                stamps.append(perf_counter())
            return inner(query)

        policy.process = process
        return policy

    def start(self) -> None:
        """Begin a round: the first slice starts now."""
        self._ticks = 0
        self.stamps.append(perf_counter())

    def drain_ms(self) -> List[float]:
        """Slice durations since :meth:`start`, in milliseconds."""
        stamps = self.stamps
        gaps = [
            (later - earlier) * 1000.0
            for earlier, later in zip(stamps, stamps[1:])
        ]
        del stamps[:]
        return gaps


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water resident set size in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def timed(call: Callable[[], Any]) -> float:
    start = perf_counter()
    call()
    return perf_counter() - start
