"""Shared experiment infrastructure.

Every experiment needs the same expensive setup: build the synthetic
federation, generate a trace, and *prepare* it (execute every query to
measure yields).  :func:`build_context` memoizes that work in-process and
persists prepared traces to a disk cache so repeated benchmark runs skip
re-execution.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.core.instrumentation import Instrumentation
from repro.errors import ConfigurationError
from repro.federation.federation import Federation
from repro.federation.mediator import Mediator
from repro.workload.generator import TraceConfig, generate_trace
from repro.workload.prepare import prepare_trace
from repro.workload.sdss_schema import (
    PROFILES,
    ScaleProfile,
    build_federation,
)
from repro.workload.trace import PreparedTrace, Trace

#: Bump when generation or attribution semantics change, invalidating
#: previously cached prepared traces.
CACHE_VERSION = 3

#: Canonical experiment scale (queries per trace).  The paper's traces
#: hold ~25k queries; benchmarks default to a few thousand to keep the
#: whole suite in minutes while preserving every workload property.
DEFAULT_NUM_QUERIES = 3000
DEFAULT_PROFILE = "small"


#: Spellings that force serial execution (worker count 0).
_SERIAL_SPELLINGS = frozenset({"0", "false", "no", "off"})


def parse_bounded_int(
    raw: str,
    source: str,
    minimum: int,
    maximum: Optional[int] = None,
    what: str = "value",
) -> int:
    """Parse a decimal integer within ``[minimum, maximum]``.

    The shared hardening core behind :func:`parse_worker_count` and the
    service knobs (``--port``, ``--max-inflight``, ``--queue-depth``):
    non-integers and out-of-range values raise
    :class:`~repro.errors.ConfigurationError` naming ``source``, so
    every CLI turns garbage into exit code 2 instead of a silent
    fallback.
    """
    bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    try:
        value = int(raw.strip(), 10)
    except ValueError:
        raise ConfigurationError(
            f"{source} must be a decimal integer {bounds} "
            f"({what}), got {raw!r}"
        ) from None
    if value < minimum or (maximum is not None and value > maximum):
        raise ConfigurationError(
            f"{source} must be {bounds} ({what}), got {raw!r}"
        )
    return value


def parse_worker_count(raw: str, source: str = "REPRO_PARALLEL") -> int:
    """Parse a worker-count setting into a pool size (0 means serial).

    Accepts ``0`` / ``false`` / ``no`` / ``off`` for serial execution
    and any positive decimal integer for a pinned pool size.  Anything
    else — non-integers, negatives, floats — raises
    :class:`~repro.errors.ConfigurationError` naming ``source``, rather
    than being silently coerced into a CPU-count fallback.
    """
    text = raw.strip().lower()
    if text in _SERIAL_SPELLINGS:
        return 0
    try:
        value = int(text, 10)
    except ValueError:
        raise ConfigurationError(
            f"{source} must be a positive integer worker count or one "
            f"of 0/false/no/off for serial execution, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"{source} worker count must be >= 1 (use 0/false/no/off "
            f"for serial execution), got {raw!r}"
        )
    return value


def parallel_workers() -> int:
    """Worker-process count for experiment fan-out (0 means serial).

    Controlled by the ``REPRO_PARALLEL`` environment variable: unset
    (or blank) uses one worker per CPU (serial on single-CPU machines),
    ``0`` / ``false`` / ``no`` / ``off`` forces serial, and a positive
    integer pins the pool size.  Malformed values raise
    :class:`~repro.errors.ConfigurationError` instead of silently
    falling back.  Parallel and serial execution produce identical
    results (the runner guarantees deterministic ordering), so this is
    purely a wall-clock knob.
    """
    raw = os.environ.get("REPRO_PARALLEL")
    if raw is None or not raw.strip():
        cpus = os.cpu_count() or 1
        return cpus if cpus > 1 else 0
    return parse_worker_count(raw, source="REPRO_PARALLEL")


@dataclass
class ExperimentContext:
    """Everything one experiment needs, built once and shared."""

    flavor: str
    profile: ScaleProfile
    federation: Federation
    mediator: Mediator
    trace: Trace
    prepared: PreparedTrace

    @property
    def database_bytes(self) -> int:
        return self.federation.total_database_bytes()

    def capacity_for(self, fraction: float) -> int:
        """Cache capacity for a fraction of the database size."""
        return max(1, int(self.database_bytes * fraction))


_MEMO: Dict[str, ExperimentContext] = {}


def cache_dir() -> Path:
    """Disk cache location for prepared traces (repo-local)."""
    path = Path(__file__).resolve().parents[3] / ".repro_cache"
    path.mkdir(exist_ok=True)
    return path


def build_context(
    flavor: str = "edr",
    num_queries: int = DEFAULT_NUM_QUERIES,
    profile_name: str = DEFAULT_PROFILE,
    seed: Optional[int] = None,
    use_disk_cache: bool = True,
) -> ExperimentContext:
    """Build (or reuse) the federation + prepared trace for one flavor."""
    key = _cache_key(flavor, num_queries, profile_name, seed)
    memoized = _MEMO.get(key)
    if memoized is not None:
        return memoized

    profile = PROFILES[profile_name]
    federation = build_federation(profile)
    mediator = Mediator(federation)
    config = TraceConfig(
        num_queries=num_queries, flavor=flavor, seed=seed
    )
    trace = generate_trace(config, profile)

    prepared: Optional[PreparedTrace] = None
    cache_file = cache_dir() / f"prepared-{key}.jsonl"
    if use_disk_cache and cache_file.exists():
        try:
            prepared = PreparedTrace.load(cache_file)
            if len(prepared) != num_queries:
                prepared = None
        except Exception:
            prepared = None
    if prepared is None:
        prepared = prepare_trace(trace, mediator)
        if use_disk_cache:
            prepared.save(cache_file)

    context = ExperimentContext(
        flavor=flavor,
        profile=profile,
        federation=federation,
        mediator=mediator,
        trace=trace,
        prepared=prepared,
    )
    _MEMO[key] = context
    return context


def _cache_key(
    flavor: str, num_queries: int, profile_name: str, seed: Optional[int]
) -> str:
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "flavor": flavor,
            "num_queries": num_queries,
            "profile": profile_name,
            "seed": seed,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return f"{flavor}-{num_queries}-{profile_name}-{digest}"


def clear_memo() -> None:
    """Drop in-process memoized contexts (tests use this)."""
    _MEMO.clear()


# ---------------------------------------------------------------------------
# Experiment-wide telemetry
# ---------------------------------------------------------------------------

#: Process-wide telemetry sink for experiment drivers.  ``run_all``
#: installs one when ``--telemetry-dir`` is given; individual figure
#: modules forward it into the runners so sweep/comparison telemetry
#: (including parallel-worker snapshots) aggregates in one place.
_EXPERIMENT_INSTRUMENTATION: Optional[Instrumentation] = None


def experiment_instrumentation() -> Optional[Instrumentation]:
    """The installed experiment-wide telemetry sink (None when off)."""
    return _EXPERIMENT_INSTRUMENTATION


def set_experiment_instrumentation(
    instrumentation: Optional[Instrumentation],
) -> Optional[Instrumentation]:
    """Install (or clear, with None) the experiment telemetry sink.

    Returns the previous sink so callers can restore it; ``run_all``
    wraps its driver loop in try/finally around this.
    """
    global _EXPERIMENT_INSTRUMENTATION
    previous = _EXPERIMENT_INSTRUMENTATION
    _EXPERIMENT_INSTRUMENTATION = instrumentation
    return previous
