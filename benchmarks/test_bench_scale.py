"""Streamed-replay scale benchmarks: throughput and memory vs trace size.

The scale pipeline (``GeneratedStream`` → estimated yields →
``Simulator.run_stream``) claims two things: throughput that makes
10^6-query traces practical, and peak memory that stays flat however
long the trace is.  This module pins both as a curve over 10^3-10^5
queries (10^6 when ``REPRO_BENCH_LARGE`` is set), plus a head-to-head
against the legacy pipeline shape — per-query parse/plan with no shape
cache, row-at-a-time execution, exact yields, fully materialized
trace — which is what every run paid before the columnar/streaming
refactor.  The streamed pipeline must beat it by >=10x at 10^4 queries.

Results land in a combined ``BENCH_scale.json`` artifact (throughput
curve, traced memory peaks, and the legacy-vs-streamed ratio) so CI
archives a scale trajectory across PRs.

Memory runs are separate from throughput runs: tracemalloc slows the
replay several-fold, so traced configurations stop at 10^4 in CI.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from typing import Dict, List, Tuple

import pytest

from repro.core.yield_model import make_yield_source
from repro.federation.mediator import Mediator
from repro.sim.runner import build_policy, run_single
from repro.sim.scale_run import _build_mediator
from repro.sim.simulator import Simulator
from repro.sqlengine import vectorized as _vectorized
from repro.sqlengine.shapes import ShapePlanner
from repro.workload.generator import TraceConfig, generate_trace
from repro.workload.prepare import prepare_trace
from repro.workload.sdss_schema import PROFILES
from repro.workload.stream import GeneratedStream

from .conftest import artifact_dir

#: (label, trace length) per throughput tier.
SCALES: List[Tuple[str, int]] = [
    ("1e3", 1_000),
    ("1e4", 10_000),
    ("1e5", 100_000),
]
#: Traced (tracemalloc) tiers — several-fold slower, so shorter.
MEMORY_SCALES: List[Tuple[str, int]] = [
    ("1e3", 1_000),
    ("1e4", 10_000),
]
if os.environ.get("REPRO_BENCH_LARGE"):
    SCALES.append(("1e6", 1_000_000))
    MEMORY_SCALES.append(("1e5", 100_000))

CAPACITY = 40_000_000

#: Ceiling for the traced replay peak at every tier.  A materialized
#: 10^5-query prepared trace alone is far beyond this; the streamed
#: path must hold it at 10^6 too.
PEAK_CEILING_MB = 200.0

#: Collected results, flushed into BENCH_scale.json at session end.
_RESULTS: Dict[str, Dict[str, object]] = {
    "throughput": {},
    "memory": {},
}


def _streamed_setup(num_queries: int):
    """(simulator, stream, policy) for an estimated-yield streamed run."""
    mediator = _build_mediator(PROFILES["small"])
    config = TraceConfig(num_queries=num_queries, flavor="edr")
    source = make_yield_source("estimated", mediator=mediator)
    stream = GeneratedStream(config, mediator, source, PROFILES["small"])
    simulator = Simulator(
        mediator.federation, granularity="table", policy_sees_weights=True
    )
    policy = build_policy(
        "online-by", CAPACITY, stream, mediator.federation, "table"
    )
    return simulator, stream, policy


def _run_streamed(num_queries: int):
    """One end-to-end streamed replay; returns (result, seconds)."""
    simulator, stream, policy = _streamed_setup(num_queries)
    start = time.perf_counter()
    result = simulator.run_stream(
        stream, policy, record_series="sampled"
    )
    return result, time.perf_counter() - start


class _LegacyMediator(Mediator):
    """Pre-refactor planning behavior: every query parses and plans
    from scratch — no exact-SQL hits across distinct queries, no
    shape-keyed template cache."""

    def plan(self, sql):
        self._plan_cache.clear()
        self._shapes = ShapePlanner(self._lookup)
        return super().plan(sql)


def _run_legacy(num_queries: int, monkeypatch) -> Tuple[object, float]:
    """The pre-refactor pipeline shape, end to end.

    Materialized trace, exact yields (every query executes), per-query
    parse/plan, and the row-at-a-time executor (the vectorized scan is
    disabled for the measurement).  Returns (result, seconds).
    """
    mediator = _build_mediator(PROFILES["small"])
    legacy = _LegacyMediator(mediator.federation)
    monkeypatch.setattr(
        _vectorized, "filtered_positions", lambda *args: None
    )
    config = TraceConfig(num_queries=num_queries, flavor="edr")
    start = time.perf_counter()
    trace = generate_trace(config, PROFILES["small"])
    prepared = prepare_trace(trace, legacy)
    result = run_single(
        prepared, legacy.federation, "online-by", CAPACITY
    )
    return result, time.perf_counter() - start


@pytest.fixture(scope="module", autouse=True)
def _flush_results():
    """Write the combined BENCH_scale.json after the module runs."""
    yield
    directory = artifact_dir()
    if directory is None:
        return
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"benchmark": "scale", "capacity_bytes": CAPACITY}
    payload.update(
        {key: value for key, value in sorted(_RESULTS.items()) if value}
    )
    (directory / "BENCH_scale.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.mark.parametrize("label,num_queries", SCALES)
def test_scale_throughput(benchmark, label, num_queries):
    """Streamed replay throughput curve (generation + estimation +
    decision loop, end to end)."""

    def run():
        return _run_streamed(num_queries)

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.queries == num_queries
    _RESULTS["throughput"][label] = {
        "queries": num_queries,
        "wall_seconds": round(elapsed, 6),
        "queries_per_second": round(num_queries / max(elapsed, 1e-9), 2),
    }


@pytest.mark.parametrize("label,num_queries", MEMORY_SCALES)
def test_scale_memory_stays_flat(label, num_queries):
    """Traced replay peak stays under a trace-length-independent
    ceiling — the constant-memory claim, measured."""
    tracemalloc.start()
    try:
        result, _ = _run_streamed(num_queries)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.queries == num_queries
    peak_mb = peak_bytes / 1e6
    _RESULTS["memory"][label] = {
        "queries": num_queries,
        "tracemalloc_peak_mb": round(peak_mb, 2),
    }
    assert peak_mb < PEAK_CEILING_MB, (
        f"{label}: traced peak {peak_mb:.1f} MB exceeds the "
        f"{PEAK_CEILING_MB:.0f} MB flat-memory ceiling"
    )


def test_streamed_beats_legacy_10x(monkeypatch):
    """The 10^4-query pin: estimated-streamed replay must be >=10x the
    legacy pipeline (materialized trace, exact yields, uncached
    planning, row executor)."""
    num_queries = 10_000
    legacy_result, legacy_seconds = _run_legacy(num_queries, monkeypatch)
    monkeypatch.undo()
    streamed_result, streamed_seconds = _run_streamed(num_queries)
    assert legacy_result.queries == num_queries
    assert streamed_result.queries == num_queries
    legacy_qps = num_queries / max(legacy_seconds, 1e-9)
    streamed_qps = num_queries / max(streamed_seconds, 1e-9)
    ratio = streamed_qps / legacy_qps
    _RESULTS["speedup"] = {
        "queries": num_queries,
        "legacy_queries_per_second": round(legacy_qps, 2),
        "streamed_queries_per_second": round(streamed_qps, 2),
        "ratio": round(ratio, 2),
    }
    assert ratio >= 10.0, (
        f"streamed {streamed_qps:,.0f} q/s is only {ratio:.1f}x legacy "
        f"{legacy_qps:,.0f} q/s (need >=10x)"
    )
