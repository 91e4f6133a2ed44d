"""Runs one workload end to end (untraced) or traced, and shapes the
result the way ``BENCHMARK.json`` names it."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Sequence, Type

from benchmarks.perf.common import (
    MIN_ROUNDS,
    SETUP_REPEATS,
    Check,
    Round,
    check_equal,
    percentile,
    quartiles,
    timed,
)
from benchmarks.perf.replay import (
    FleetFaults,
    StreamEstimated,
    StreamExact,
    SweepCompiled,
    Workload,
)
from benchmarks.perf.serve import ServeBatched, ServeOpen
from benchmarks.perf.spans import SpanLog

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"

#: Where result documents and span logs land (gitignored).
OUTPUT_DIR = REPO_ROOT / ".bench_out"

WORKLOADS: Dict[str, Type[Workload]] = {
    workload.name: workload
    for workload in (
        StreamEstimated,
        StreamExact,
        SweepCompiled,
        FleetFaults,
        ServeBatched,
        ServeOpen,
    )
}


def load_spec() -> Dict[str, Any]:
    with SPEC_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def environment(seed: int) -> Dict[str, Any]:
    """What a reader needs to compare two result documents."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
    }


def rounds_for(workload: Workload, seconds: float) -> int:
    """Whole rounds that fill ``seconds`` at the reference box's pace."""
    return max(MIN_ROUNDS, round(seconds / workload.nominal_round_s))


def quiet_units(rounds: Sequence[Round]) -> List[float]:
    """Per unit of work, the lower-quartile time over the rounds.

    Rounds repeat the same work, so sample ``k`` of every round timed
    the same slice (or request, or POST).  Interference on a shared
    box only ever slows a unit down, and it is intermittent at the
    millisecond scale even inside a burst that lasts a minute: the
    *median round* moved by 20 % between runs of one seed, while the
    fastest quarter of the tries at each single unit barely moves.
    The rank is the nearest-rank lower quartile (2nd fastest of 8
    rounds, the fastest of 3).
    """
    samples = [round_.latencies_ms for round_ in rounds]
    if len({len(one) for one in samples}) != 1:
        raise ValueError("rounds did not time the same units of work")
    rank = -(-len(samples) // 4) - 1
    return [sorted(tries)[rank] for tries in zip(*samples)]


def _failed(checks: Sequence[Check]) -> List[Check]:
    return [check for check in checks if not check.ok]


def _shape(
    spec_metrics: Sequence[Dict[str, Any]], values: Dict[str, float]
) -> Dict[str, Dict[str, Any]]:
    """Exactly the metrics the spec names, each with its unit.

    A per-layer metric that a workload never exercises reads 0 (that
    layer did no work); an unnamed metric is a bug in the benchmark.
    """
    names = {metric["name"] for metric in spec_metrics}
    unnamed = sorted(set(values) - names)
    if unnamed:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unnamed}")
    return {
        metric["name"]: {
            "value": values.get(metric["name"], 0.0),
            "unit": metric["unit"],
        }
        for metric in spec_metrics
    }


def run_end_to_end(
    workload: Workload, seconds: float, spec: Dict[str, Any]
) -> Dict[str, Any]:
    """Set up (repeatedly), run the timed rounds untraced, verify."""
    setups: List[float] = []
    rounds: List[Round] = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.close()
            setups.append(timed(workload.setup))
        for _ in range(rounds_for(workload, seconds)):
            rounds.append(workload.run_round())
    finally:
        workload.close()
    # Read before verification: the reference replays materialize
    # traces, and must not count against the streaming path's memory.
    rss_mb = workload.peak_rss_mb()
    checks: List[Check] = []
    for position, round_ in enumerate(rounds):
        checks.extend(round_.checks)
        if workload.rounds_identical and position:
            checks.append(
                check_equal(
                    f"round[{position}]==round[0]",
                    round_.totals,
                    rounds[0].totals,
                )
            )
    checks.extend(workload.verify(rounds))

    queries = sum(round_.queries for round_ in rounds)
    wan_bytes = sum(round_.totals["wan_bytes"] for round_ in rounds)
    samples = sum(len(round_.latencies_ms) for round_ in rounds)
    per_round = {
        "queries_per_s": [r.queries / r.wall_s for r in rounds],
        "latency_p50_ms": [percentile(r.latencies_ms, 0.5) for r in rounds],
        "latency_p99_ms": [percentile(r.latencies_ms, 0.99) for r in rounds],
    }
    failed_checks = _failed(checks)
    failed = sum(round_.failed for round_ in rounds) + len(failed_checks)
    quiet = quiet_units(rounds)
    if workload.units_tile_round:
        # Closed loops: the units are back to back, so their quiet
        # times add up to the round's quiet wall.
        quiet_qps = rounds[0].queries / (sum(quiet) / 1000.0)
    else:
        quiet_qps = quartiles(per_round["queries_per_s"])[2]
    values = {
        "setup_s": statistics.median(setups),
        "queries_per_s": quiet_qps,
        "latency_p50_ms": statistics.median(quiet),
        "latency_p99_ms": percentile(quiet, 0.99),
        "wan_bytes_per_query": wan_bytes / queries,
        "peak_rss_mb": rss_mb,
    }
    return {
        "correct": failed == 0,
        "attempted": queries + len(checks),
        "failed": failed,
        "metrics": _shape(spec["end_to_end"], values),
        "detail": {
            "workload": workload.name,
            "traced": False,
            "rounds": len(rounds),
            "queries_per_round": rounds[0].queries,
            "latency_samples": samples,
            "latency_units_per_round": len(quiet),
            "latency_unit_of_work": workload.latency_unit,
            "setup_s_samples": setups,
            "per_round": per_round,
            "per_round_quartiles": {
                name: quartiles(values_) for name, values_ in per_round.items()
            },
            "round_detail": [round_.detail for round_ in rounds],
            "checks_run": len(checks),
            "checks_failed": [
                f"{check.name}: {check.detail}" for check in failed_checks
            ],
        },
    }


def run_traced(
    workload: Workload, spec: Dict[str, Any], span_path: Path
) -> Dict[str, Any]:
    """One untraced reference round, then the same inputs traced."""
    log = SpanLog()
    try:
        workload.setup()
        traced = workload.run_traced(log)
    finally:
        workload.close()
    checks = list(traced.checks)
    nesting = log.nesting_errors()
    checks.append(Check("spans nest", not nesting, "; ".join(nesting)))
    busy = sum(seconds for seconds, _ in log.self_times().values())
    spanned = traced.traced_wall_s + traced.other_spanned_s
    checks.append(
        Check(
            "layer seconds add up to the spanned wall within 10 %",
            abs(busy - spanned) <= 0.10 * spanned,
            f"{busy:.4f} s vs {spanned:.4f} s",
        )
    )
    log.dump(span_path)
    failed_checks = _failed(checks)
    values = dict(traced.metrics)
    values["bench.trace_overhead_share"] = (
        traced.traced_wall_s / traced.untraced_wall_s - 1.0
    )
    values["bench.traced_wall_s"] = traced.traced_wall_s
    values["bench.untraced_wall_s"] = traced.untraced_wall_s
    values["bench.span_count"] = float(len(log))
    values["bench.failed_share"] = len(failed_checks) / (
        traced.queries + len(checks)
    )
    return {
        "correct": not failed_checks,
        "attempted": traced.queries + len(checks),
        "failed": len(failed_checks),
        "metrics": _shape(spec["per_layer"], values),
        "detail": {
            "workload": workload.name,
            "traced": True,
            "span_file": str(span_path),
            "checks_run": len(checks),
            "checks_failed": [
                f"{check.name}: {check.detail}" for check in failed_checks
            ],
        },
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool
) -> Dict[str, Any]:
    """The whole of one benchmark invocation, as a result document."""
    spec = load_spec()
    workload = WORKLOADS[name](seed)
    if traced:
        span_path = OUTPUT_DIR / f"spans-{name}-{seed}.json"
        document = run_traced(workload, spec, span_path)
    else:
        document = run_end_to_end(workload, seconds, spec)
    document["detail"].update(environment(seed))
    document["detail"]["seconds"] = seconds
    return document
