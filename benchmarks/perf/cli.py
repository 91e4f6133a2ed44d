"""Command line of the perf benchmark.

One workload, the way the driver calls it (the last stdout line is the
result object)::

    python3 benchmarks/perf/run.py --workload stream_exact --seed 7 \\
        --seconds 10 --trace 0

Every workload, each in a fresh subprocess, with a table and one result
document; ``--repeat K`` runs K full sets and fails when two sets
disagree by more than a metric's bound::

    PYTHONPATH=src python -m benchmarks.perf --seed 7 [--traced] [--repeat 2]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf.common import quartiles, spread
from benchmarks.perf.harness import (
    OUTPUT_DIR,
    REPO_ROOT,
    WORKLOADS,
    environment,
    load_spec,
    run_workload,
)

RUN_SCRIPT = Path(__file__).resolve().with_name("run.py")

#: A child that outlives this is reported failed (the driver's own cap).
CHILD_TIMEOUT_S = 180.0


def build_parser(default_seconds: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Replay, sweep, fleet and service perf benchmark.",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="run this one workload in-process (default: all, each in "
        "a fresh subprocess)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=default_seconds,
        help="length of the timed phase (sets the number of rounds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 = the traced run: per-layer metrics instead of end-to-end",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="run this many full sets and compare them against the bounds",
    )
    parser.add_argument(
        "--out", default=None,
        help="result document path (default: .bench_out/perf-result.json)",
    )
    return parser


def print_metrics(document: Dict[str, Any]) -> None:
    detail = document["detail"]
    print(
        f"# {detail['workload']} seed={detail['seed']} "
        f"traced={detail['traced']} checks={detail['checks_run']}"
    )
    for name, metric in document["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for failure in detail["checks_failed"]:
        print(f"CHECK FAILED {failure}")


def result_line(document: Dict[str, Any]) -> str:
    return json.dumps(
        {
            key: document[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }
    )


def write_document(path: Path, document: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_single(args: argparse.Namespace) -> int:
    """The driver's contract: one workload, result object on the last line."""
    document = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    kind = "traced" if args.trace else "e2e"
    write_document(
        Path(args.out)
        if args.out
        else OUTPUT_DIR / f"{args.workload}-{kind}-{args.seed}.json",
        document,
    )
    print_metrics(document)
    print(result_line(document))
    return 0 if document["correct"] else 1


def run_child(
    workload: str, args: argparse.Namespace, out: Path
) -> Optional[Dict[str, Any]]:
    """One workload in a fresh interpreter; None when it crashed."""
    command = [
        sys.executable, str(RUN_SCRIPT),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    try:
        subprocess.run(
            command,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    if not out.exists():
        return None
    with out.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_sets(
    spec: Dict[str, Any], sets: List[Dict[str, Dict[str, Any]]]
) -> List[str]:
    """Per metric x workload: median, quartiles and spread against the
    bound; returns the pairs whose sets disagree by more than it."""
    disagreements: List[str] = []
    print(f"\n# {len(sets)} sets: median [q1..q3] spread / bound")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            values = [
                one[workload]["metrics"][name]["value"] for one in sets
            ]
            q1, median, q3 = quartiles(values)
            gap = (max(values) - min(values)) / median if median else 0.0
            verdict = "ok" if gap <= bound else "DISAGREE"
            print(
                f"{workload:17s} {name:20s} {median:12.6g} "
                f"[{q1:.6g}..{q3:.6g}] spread {spread(values):.3f} "
                f"max-gap {gap:.3f} / {bound} {verdict}"
            )
            if gap > bound:
                disagreements.append(f"{workload}/{name}")
    return disagreements


def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    kind = "traced" if args.trace else "e2e"
    sets: List[Dict[str, Dict[str, Any]]] = []
    broken: List[str] = []
    for set_no in range(args.repeat):
        documents: Dict[str, Dict[str, Any]] = {}
        for workload in names:
            out = OUTPUT_DIR / f"{workload}-{kind}-{args.seed}-set{set_no}.json"
            out.unlink(missing_ok=True)
            document = run_child(workload, args, out)
            if document is None:
                broken.append(f"{workload} (set {set_no}) crashed")
                continue
            documents[workload] = document
            print_metrics(document)
            if not document["correct"]:
                broken.append(f"{workload} (set {set_no}) failed checks")
        sets.append(documents)
    disagreements: List[str] = []
    if args.repeat > 1 and not args.trace and not broken:
        disagreements = compare_sets(spec, sets)
    summary = {
        "benchmark": "benchmarks/perf",
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "sets": sets,
        "broken": broken,
        "disagreements": disagreements,
        **environment(args.seed),
    }
    path = Path(args.out) if args.out else OUTPUT_DIR / "perf-result.json"
    write_document(path, summary)
    print(f"\nwrote {path}")
    for problem in broken + disagreements:
        print(f"FAILED {problem}")
    return 1 if broken or disagreements else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    args = build_parser(float(spec["run_seconds"])).parse_args(argv)
    if args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2
    if args.workload is not None and args.repeat == 1:
        return run_single(args)
    if args.workload is not None:
        print("--repeat runs every workload; drop --workload", file=sys.stderr)
        return 2
    return run_all(args)
