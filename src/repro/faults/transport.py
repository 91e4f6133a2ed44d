"""Resilient transport: retries, backoff, and per-server circuit breakers.

:class:`ResilientTransport` sits between the mediator/proxy and the
fault engine.  Every WAN transfer goes through :meth:`send`, which:

1. consults the per-server :class:`CircuitBreaker` — an OPEN breaker
   refuses outright (no bytes move, no retries burn);
2. probes the :class:`~repro.faults.engine.FaultEngine` per attempt —
   outages ship nothing, transient failures on an *up* server waste the
   full payload (the bytes crossed the WAN before the transfer died);
3. backs off between attempts with capped exponential delay plus
   deterministic jitter, modelled as fractional ticks so a retry
   sequence can outlive a short fault window without any wall clock;
4. reports an aggregate :class:`TransportOutcome` with the retry count
   and wasted bytes/cost, which callers route through the sanctioned
   ledger mutators so retransmissions show up in WAN totals.

Timeouts are modelled through brownout inflation: an attempt whose
cost multiplier exceeds ``RetryPolicy.timeout_multiplier`` is treated
as timed out (the transfer would not finish inside the per-backend
deadline) and wastes the payload like any other transient failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import FaultError
from repro.faults.engine import FaultEngine, uniform_draw
from repro.obs.spans import STAGE_ATTEMPT, SpanTracer

#: Breaker states, in transition order.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the transport tries before giving up on a transfer.

    Attributes:
        max_attempts: Total attempts per request (first try included).
        base_backoff: Backoff after the first failure, in ticks.
        backoff_cap: Ceiling on any single backoff delay, in ticks.
        jitter: Fraction of each delay drawn as deterministic jitter
            (0 disables jitter entirely).
        timeout_multiplier: Cost-inflation level treated as a timeout:
            an attempt seeing ``cost_multiplier >= timeout_multiplier``
            fails as too slow to finish inside the backend deadline.
    """

    max_attempts: int = 3
    base_backoff: float = 0.25
    backoff_cap: float = 2.0
    jitter: float = 0.5
    timeout_multiplier: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError(
                f"retry policy needs max_attempts >= 1, got {self.max_attempts}"
            )
        if self.base_backoff < 0 or self.backoff_cap < self.base_backoff:
            raise FaultError(
                f"retry policy needs 0 <= base_backoff <= backoff_cap, got "
                f"{self.base_backoff}/{self.backoff_cap}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise FaultError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.timeout_multiplier <= 1.0:
            raise FaultError(
                f"timeout_multiplier must exceed 1, got "
                f"{self.timeout_multiplier}"
            )

    def backoff(self, seed: int, server: str, request_id: int, attempt: int) -> float:
        """Delay in ticks before retry ``attempt`` (attempt 1 = first retry).

        Capped exponential growth with deterministic jitter keyed by
        ``(seed, server, request_id, attempt)``: the same request under
        the same schedule always waits the same fractional-tick delay.
        """
        if attempt < 1:
            return 0.0
        delay = min(self.backoff_cap, self.base_backoff * (2 ** (attempt - 1)))
        if self.jitter > 0.0 and delay > 0.0:
            draw = uniform_draw(seed, "backoff", server, request_id, attempt)
            delay *= 1.0 - self.jitter / 2.0 + self.jitter * draw
        return delay


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-server circuit-breaker tuning.

    Attributes:
        failure_threshold: Consecutive exhausted requests that trip the
            breaker from CLOSED to OPEN.
        cooldown_ticks: Ticks an OPEN breaker refuses traffic before
            allowing one HALF_OPEN probe.
    """

    failure_threshold: int = 3
    cooldown_ticks: int = 5

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise FaultError(
                f"breaker needs failure_threshold >= 1, got "
                f"{self.failure_threshold}"
            )
        if self.cooldown_ticks < 1:
            raise FaultError(
                f"breaker needs cooldown_ticks >= 1, got {self.cooldown_ticks}"
            )


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN state machine for one server.

    CLOSED counts consecutive exhausted requests; at the threshold it
    opens.  OPEN refuses everything until ``cooldown_ticks`` logical
    ticks elapse, then admits exactly one HALF_OPEN probe: success
    closes the breaker, failure re-opens it for another cooldown.
    """

    __slots__ = (
        "_policy",
        "_state",
        "_consecutive_failures",
        "_opened_at",
        "_transitions",
        "_rejections",
    )

    def __init__(self, policy: Optional[BreakerPolicy] = None) -> None:
        self._policy = policy or BreakerPolicy()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0
        self._transitions = 0
        self._rejections = 0

    @property
    def state(self) -> str:
        return self._state

    @property
    def transitions(self) -> int:
        """State changes so far (for the breaker-churn counters)."""
        return self._transitions

    @property
    def rejections(self) -> int:
        """Requests refused while OPEN."""
        return self._rejections

    def _move(self, state: str) -> None:
        if state != self._state:
            self._state = state
            self._transitions += 1

    def allows(self, tick: int) -> bool:
        """Whether a request may proceed at ``tick``.

        An OPEN breaker whose cooldown has elapsed moves to HALF_OPEN
        and admits the caller as the probe.
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN:
            if tick - self._opened_at >= self._policy.cooldown_ticks:
                self._move(BREAKER_HALF_OPEN)
                return True
            self._rejections += 1
            return False
        # HALF_OPEN: one probe is already in flight per tick; additional
        # requests in the same tick ride along as probes too (the replay
        # loop is single-threaded, so this stays deterministic).
        return True

    def record_success(self) -> None:
        """A request completed; close the breaker."""
        self._consecutive_failures = 0
        self._move(BREAKER_CLOSED)

    def record_failure(self, tick: int) -> None:
        """A request exhausted its retries; maybe trip the breaker."""
        if self._state == BREAKER_HALF_OPEN:
            self._opened_at = tick
            self._move(BREAKER_OPEN)
            return
        self._consecutive_failures += 1
        if (
            self._state == BREAKER_CLOSED
            and self._consecutive_failures >= self._policy.failure_threshold
        ):
            self._opened_at = tick
            self._move(BREAKER_OPEN)


@dataclass(frozen=True)
class TransportOutcome:
    """What one :meth:`ResilientTransport.send` call did on the wire.

    Attributes:
        ok: Whether the payload ultimately got through.
        server: The server addressed.
        attempts: Transfer attempts made (0 when the breaker refused).
        retries: Attempts beyond the first (``max(0, attempts - 1)``).
        wasted_bytes: Raw bytes shipped by failed attempts — bytes that
            crossed the WAN and bought nothing.
        wasted_cost: Link-weighted cost of those wasted bytes, brownout
            inflation included.
        cost_multiplier: Inflation applied to the *successful* attempt
            (1.0 when the transfer failed or no brownout was active).
        rejected: True when an OPEN breaker refused the request.
    """

    ok: bool
    server: str
    attempts: int
    retries: int
    wasted_bytes: int
    wasted_cost: float
    cost_multiplier: float
    rejected: bool = False


#: Signature of the counter hook: ``(name, value)``.
CounterHook = Callable[[str, int], None]


class ResilientTransport:
    """Retrying, breaker-guarded WAN transfers over a fault engine.

    One instance per run: breakers accumulate state across requests,
    and ``request_id`` (a per-transport monotonic counter) feeds the
    deterministic draws, so a fresh transport per run is what makes
    serial and parallel sweeps agree.
    """

    def __init__(
        self,
        engine: FaultEngine,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        on_counter: Optional[CounterHook] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        self._engine = engine
        self._retry = retry or RetryPolicy()
        self._breaker_policy = breaker or BreakerPolicy()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._on_counter = on_counter
        self._tracer = tracer
        self._request_id = 0
        self._requests = 0
        self._retries = 0
        self._wasted_bytes = 0
        self._failures = 0

    @property
    def engine(self) -> FaultEngine:
        return self._engine

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._retry

    def breaker_for(self, server: str) -> CircuitBreaker:
        breaker = self._breakers.get(server)
        if breaker is None:
            breaker = CircuitBreaker(self._breaker_policy)
            self._breakers[server] = breaker
        return breaker

    def set_counter_hook(self, hook: Optional[CounterHook]) -> None:
        """Route ``transport.*``/``breaker.*`` counters into a sink.

        Late wiring for drivers (the proxy) whose instrumentation is
        created after the transport; counters emitted before the hook
        is set are only visible through :meth:`stats`.
        """
        self._on_counter = hook

    def attach_tracer(self, tracer: Optional[SpanTracer]) -> None:
        """Late tracer wiring, mirroring :meth:`set_counter_hook`."""
        self._tracer = tracer

    def _count(self, name: str, value: int = 1) -> None:
        if self._on_counter is not None and value:
            self._on_counter(name, value)

    def is_up(self, server: str, tick: int) -> bool:
        """Availability probe (no breaker interaction, no accounting)."""
        return self._engine.is_up(server, tick)

    def send(
        self,
        server: str,
        payload_bytes: int,
        tick: int,
        weight: float = 1.0,
    ) -> TransportOutcome:
        """Attempt to move ``payload_bytes`` to/from ``server`` at ``tick``.

        ``weight`` is the per-byte link weight so wasted cost lands in
        the same currency as the sanctioned ledgers.  The caller charges
        the *successful* transfer itself (through its normal accounting
        path, scaled by ``cost_multiplier``); the transport only totals
        what the failed attempts burned.
        """
        self._request_id += 1
        request_id = self._request_id
        self._requests += 1
        self._count("transport.requests")

        tracer = self._tracer
        breaker = self.breaker_for(server)
        before = breaker.transitions
        if not breaker.allows(tick):
            self._count("transport.rejections")
            self._count("breaker.transitions", breaker.transitions - before)
            if tracer is not None:
                rejected_span = tracer.start(
                    STAGE_ATTEMPT,
                    server=server,
                    attempt=0,
                    breaker=breaker.state,
                    status="rejected",
                )
                tracer.finish(rejected_span)
            return TransportOutcome(
                ok=False,
                server=server,
                attempts=0,
                retries=0,
                wasted_bytes=0,
                wasted_cost=0.0,
                cost_multiplier=1.0,
                rejected=True,
            )

        wasted_bytes = 0
        wasted_cost = 0.0
        attempts = 0
        elapsed = 0.0
        ok = False
        success_multiplier = 1.0
        for attempt in range(self._retry.max_attempts):
            attempts += 1
            # Backoff pushes later attempts into later (fractional)
            # ticks, so a retry can observe a fault window ending.
            probe_tick = tick + int(elapsed)
            attempt_span = None
            if tracer is not None:
                attempt_span = tracer.start(
                    STAGE_ATTEMPT,
                    server=server,
                    attempt=attempt,
                    breaker=breaker.state,
                    tick=probe_tick,
                )
            shipped = 0
            status = "dark"
            if not self._engine.is_up(server, probe_tick):
                # Dark server: connection refused, nothing shipped.
                pass
            else:
                multiplier = self._engine.cost_multiplier(server, probe_tick)
                timed_out = multiplier >= self._retry.timeout_multiplier
                failed = timed_out or self._engine.attempt_fails(
                    server, probe_tick, request_id, attempt
                )
                if not failed:
                    ok = True
                    success_multiplier = multiplier
                    status = "ok"
                    shipped = payload_bytes
                else:
                    # The transfer died mid-flight: the payload crossed
                    # the WAN (inflated) and bought nothing.
                    wasted_bytes += payload_bytes
                    wasted_cost += payload_bytes * weight * multiplier
                    status = "timeout" if timed_out else "failed"
                    shipped = payload_bytes
            if tracer is not None and attempt_span is not None:
                tracer.finish(
                    attempt_span, bytes_moved=shipped, status=status
                )
            if ok:
                break
            elapsed += self._retry.backoff(
                self._engine.seed, server, request_id, attempt + 1
            )

        retries = attempts - 1
        self._retries += retries
        self._wasted_bytes += wasted_bytes
        self._count("transport.retries", retries)
        self._count("transport.retry_bytes", wasted_bytes)
        if ok:
            breaker.record_success()
        else:
            self._failures += 1
            self._count("transport.failures")
            breaker.record_failure(tick)
        self._count("breaker.transitions", breaker.transitions - before)
        return TransportOutcome(
            ok=ok,
            server=server,
            attempts=attempts,
            retries=retries,
            wasted_bytes=wasted_bytes,
            wasted_cost=wasted_cost,
            cost_multiplier=success_multiplier,
        )

    # -- telemetry -------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Aggregate counters for reports and tests."""
        return {
            "requests": self._requests,
            "retries": self._retries,
            "retry_bytes": self._wasted_bytes,
            "failures": self._failures,
            "breaker_transitions": sum(
                breaker.transitions for breaker in self._breakers.values()
            ),
            "breaker_rejections": sum(
                breaker.rejections for breaker in self._breakers.values()
            ),
        }

    def breaker_states(self) -> Dict[str, str]:
        """Current breaker state per server (servers seen so far)."""
        return {
            server: breaker.state
            for server, breaker in sorted(self._breakers.items())
        }
