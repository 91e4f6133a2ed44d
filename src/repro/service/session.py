"""The per-federation decision lock and its sanctioned holder seam.

Concurrency discipline (DESIGN.md §15): the PR-4 policy state — the
Landlord victim heaps, the global credit offset, the traffic ledger —
mutates **only** under the per-federation decision lock, and only
inside the :class:`DecisionGate` holders.  Everything else in
:mod:`repro.service` (scheduler, server, loadgen) treats policy,
result, and pipeline as opaque: repro-lint RPR011 flags any service
code path that reaches a decision-lock-guarded mutator without going
through this seam.

Loads and bypasses *overlap* outside the lock: the gate returns as
soon as the decision is charged, and the caller ships the (simulated)
WAN transfer at its own pace while the next query decides.  Ordering
of decisions — which is all the policy state ever observes — is
therefore exactly the lock-acquisition order (run order within a
run), which in a single-tenant serial run is trace order: that is what
makes the service byte-identical to
:meth:`~repro.sim.simulator.Simulator.run_stream` in that mode (the
golden-equivalence suite pins it).
"""

from __future__ import annotations

import asyncio
import weakref
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.core.events import Decision
from repro.core.pipeline import DecisionPipeline
from repro.sim.results import SimulationResult
from repro.sim.streaming import SampledSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import QueryAccounting
    from repro.core.policies.base import CachePolicy
    from repro.workload.trace import PreparedQuery

#: What deciding one query yields: its index, decision and accounting.
Resolved = Tuple[int, Decision, "QueryAccounting"]

#: federation -> its decision lock.  Weak keys: a lock lives exactly
#: as long as the federation whose shared cache it guards, and two
#: services over one federation contend on one lock.
_DECISION_LOCKS: "weakref.WeakKeyDictionary[object, asyncio.Lock]" = (
    weakref.WeakKeyDictionary()
)


def decision_lock_for(federation: object) -> asyncio.Lock:
    """The one decision lock guarding ``federation``'s shared cache."""
    lock = _DECISION_LOCKS.get(federation)
    if lock is None:
        lock = asyncio.Lock()
        _DECISION_LOCKS[federation] = lock
    return lock


class DecisionGate:
    """The sanctioned lock-holder seam around one shared cache.

    One gate wraps one (pipeline, policy, result) triple.  Its two
    holders, :meth:`locked_resolve` (one query) and
    :meth:`locked_resolve_run` (a run), are the *only* places in
    :mod:`repro.service` allowed to touch decision-lock-guarded state
    (RPR011): each takes the per-federation decision lock once, runs
    the shared per-query step on every query it holds, and releases
    the lock before the caller ships any bytes.
    """

    def __init__(
        self,
        pipeline: DecisionPipeline,
        policy: "CachePolicy",
        record_series: bool = True,
        source: str = "service",
    ) -> None:
        self.pipeline = pipeline
        self.policy = policy
        self.source = source
        self.result = SimulationResult(
            policy_name=policy.name,
            granularity=pipeline.granularity,
            capacity_bytes=policy.capacity_bytes,
        )
        self._lock = decision_lock_for(pipeline.federation)
        self._series: Optional[SampledSeries] = (
            SampledSeries() if record_series else None
        )
        self._decided = 0
        self._sequence_bytes = 0
        self._shed = 0
        self._rejected = 0

    @property
    def decided(self) -> int:
        """Queries decided so far (full service + shed + rejected)."""
        return self._decided

    @property
    def shed_queries(self) -> int:
        return self._shed

    @property
    def rejected_queries(self) -> int:
        return self._rejected

    async def locked_resolve(
        self, prepared: "PreparedQuery", outcome: str = ""
    ) -> Tuple[int, Decision, "QueryAccounting"]:
        """Decide one query under the decision lock.

        The lock covers policy mutation (victim heaps, Landlord
        offset), result charging, event emission and series recording
        — the atomic unit whose ordering defines the run.  The WAN
        transfer itself happens in the caller, outside.

        ``outcome`` is the admission verdict.  "" is full service.
        ``"shed"`` is degraded service: the result ships past the
        cache exactly as a policy bypass would, but the shared cache
        is never consulted or mutated, so an overloaded (or
        rate-limited) tenant costs other tenants no heap churn.
        ``"unavailable"`` is refusal: zero bytes move.  Both are
        charged and emitted under the lock like any other query, so
        aggregate accounting stays a partition and the availability
        SLO sees every refusal.
        """
        async with self._lock:
            return self._resolve(prepared, outcome)

    async def locked_resolve_run(
        self, run: Sequence["PreparedQuery"]
    ) -> List[Union[Resolved, Exception]]:
        """Decide a run of admitted queries under one lock acquisition.

        Each runs the :meth:`locked_resolve` body, in run order; one
        whose step raises gets its exception in its slot, and the rest
        of the run is still decided.
        """
        resolved: List[Union[Resolved, Exception]] = []
        async with self._lock:
            for prepared in run:
                try:
                    resolved.append(self._resolve(prepared, ""))
                except Exception as exc:
                    resolved.append(exc)
        return resolved

    def _resolve(self, prepared: "PreparedQuery", outcome: str) -> Resolved:
        """The per-query body both holders run with the lock held."""
        index = self._decided
        self._decided += 1
        self._sequence_bytes += prepared.bypass_bytes
        if outcome == "shed":
            self._shed += 1
        elif outcome:
            self._rejected += 1
        pipeline = self.pipeline
        decision, accounting = pipeline.step(
            pipeline.compile_query(prepared, index),
            self.policy,
            self.result,
            index,
            source=self.source,
            outcome=outcome,
        )
        if self._series is not None:
            self._series.observe(self.result.breakdown.total_bytes)
        return index, decision, accounting

    def finalize(self) -> SimulationResult:
        """Seal and return the accumulated result (run_stream shape)."""
        result = self.result
        result.queries = self._decided
        result.sequence_bytes = float(self._sequence_bytes)
        if self._series is not None:
            result.cumulative_bytes = self._series.points()
            result.series_stride = self._series.stride
        return result


__all__ = ["DecisionGate", "decision_lock_for"]
