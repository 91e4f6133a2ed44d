"""Service configuration: hardened knob parsing + ``ServiceConfig``.

Every externally-supplied knob goes through a
:func:`~repro.experiments.common.parse_worker_count`-style parser:
garbage raises :class:`~repro.errors.ConfigurationError` naming the
flag, and the CLIs translate that into exit code 2 — never a silent
fallback that would let a typo'd ``--tenant-rate`` run an unlimited
service.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.common import parse_bounded_int

#: Spellings that disable a rate limit (unlimited tokens).
_UNLIMITED_SPELLINGS = frozenset({"0", "off", "none", "unlimited"})


def parse_port(raw: str, source: str = "--port") -> int:
    """Parse a TCP port: an integer in [0, 65535] (0 = ephemeral).

    Raises:
        ConfigurationError: non-integers or out-of-range values,
            naming ``source``.
    """
    return parse_bounded_int(
        raw,
        source=source,
        minimum=0,
        maximum=65535,
        what="TCP port (0 picks an ephemeral port)",
    )


def parse_max_inflight(raw: str, source: str = "--max-inflight") -> int:
    """Parse the run-length bound: queries per decision-lock hold (>= 1)."""
    return parse_bounded_int(
        raw,
        source=source,
        minimum=1,
        maximum=None,
        what="queries-per-run bound",
    )


def parse_tenant_rate(raw: str, source: str = "--tenant-rate") -> float:
    """Parse a per-tenant token-bucket rate in tokens per logical tick.

    Accepts ``0`` / ``off`` / ``none`` / ``unlimited`` to disable rate
    limiting (returned as ``0.0``) and any positive decimal number for
    a finite refill rate.  Anything else raises
    :class:`~repro.errors.ConfigurationError` naming ``source``.
    """
    text = raw.strip().lower()
    if text in _UNLIMITED_SPELLINGS:
        return 0.0
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(
            f"{source} must be a positive tokens-per-tick rate or one "
            f"of 0/off/none/unlimited, got {raw!r}"
        ) from None
    if not value > 0.0 or value != value or value == float("inf"):
        raise ConfigurationError(
            f"{source} rate must be > 0 (use 0/off/none/unlimited to "
            f"disable rate limiting), got {raw!r}"
        )
    return value


def parse_queue_depth(raw: str, source: str = "--queue-depth") -> int:
    """Parse the per-tenant bounded-queue depth (>= 1)."""
    return parse_bounded_int(
        raw,
        source=source,
        minimum=1,
        maximum=None,
        what="per-tenant queue depth",
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Admission-control and bind configuration for one service.

    Attributes:
        host: Bind address (loopback by default — expose deliberately).
        port: TCP port; 0 picks a free ephemeral port.
        max_inflight: Run length: at most this many admitted queries
            are decided under one hold of the decision lock and ship
            together; the rest wait in their tenants' bounded queues.
        tenant_rate: Token-bucket refill per tenant in tokens per
            logical arrival tick; ``0.0`` disables rate limiting.
        tenant_burst: Token-bucket capacity (burst allowance).
        queue_depth: Soft per-tenant backlog bound: arrivals beyond it
            are shed to bypass-only service.
        reject_depth: Hard *service-wide* backlog bound: an arrival
            whose tenant is already at its soft bound is refused
            outright once the combined backlog of every tenant has
            reached this depth.  Must exceed ``queue_depth``; the
            default (2x) gives shedding a full queue's worth of
            headroom before the service ever says no.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 8
    tenant_rate: float = 0.0
    tenant_burst: float = 8.0
    queue_depth: int = 64
    reject_depth: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.tenant_rate < 0.0:
            raise ConfigurationError(
                f"tenant_rate must be >= 0, got {self.tenant_rate}"
            )
        if self.tenant_burst < 1.0:
            raise ConfigurationError(
                f"tenant_burst must be >= 1, got {self.tenant_burst}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.reject_depth == 0:
            object.__setattr__(
                self, "reject_depth", 2 * self.queue_depth
            )
        if self.reject_depth <= self.queue_depth:
            raise ConfigurationError(
                f"reject_depth ({self.reject_depth}) must exceed "
                f"queue_depth ({self.queue_depth}) — shedding must "
                f"get a chance before refusal"
            )
