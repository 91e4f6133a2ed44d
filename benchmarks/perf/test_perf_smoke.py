"""Smoke test of the perf benchmark: every workload at ~200 queries.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (outside
the tier-1 ``testpaths``).  Loopback only; a few seconds per workload.
"""

from __future__ import annotations

import json
import re

import pytest

from benchmarks.perf.harness import (
    SPEC_PATH,
    WORKLOADS,
    load_spec,
    run_end_to_end,
    run_traced,
)
from benchmarks.perf.inputs import TraceShape, block_configs
from benchmarks.perf.spans import NO_QUERY, SpanLog

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: 1 cycle x 20 blocks x 10 queries.
SMOKE_SHAPE = TraceShape(cycles=1, block_len=10)


def small(name: str, seed: int = 5):
    workload = WORKLOADS[name](seed)
    workload.shape = SMOKE_SHAPE
    workload.slice_len = 5
    return workload


def test_spec_meets_the_contract():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/perf"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = []
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    names.extend(w["name"] for w in spec["workloads"])
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert 1 <= len(spec["per_layer"]) <= 128
    assert SPEC_PATH.stat().st_size <= 64 * 1024


def test_same_seed_same_blocks_other_seed_other_blocks():
    shape = TraceShape(cycles=2, block_len=3)
    assert block_configs(7, shape) == block_configs(7, shape)
    assert block_configs(7, shape) != block_configs(8, shape)
    themes = [
        next(iter(config.theme_weights))
        for config in block_configs(7, shape)[:20]
    ]
    assert sorted(set(themes)) == [
        "imaging", "spatial", "spectro", "survey_qa",
    ]
    assert themes.count("imaging") == 8 and themes.count("survey_qa") == 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics(name):
    spec = load_spec()
    document = run_end_to_end(small(name), seconds=0.1, spec=spec)
    assert document["detail"]["checks_failed"] == []
    assert document["correct"] and document["failed"] == 0
    assert document["attempted"] >= 3 * SMOKE_SHAPE.num_queries
    assert list(document["metrics"]) == [
        metric["name"] for metric in spec["end_to_end"]
    ]
    for metric in spec["end_to_end"]:
        emitted = document["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]
    assert document["detail"]["rounds"] >= 3
    assert document["detail"]["latency_samples"] >= 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_metrics_and_spans(name, tmp_path):
    spec = load_spec()
    span_path = tmp_path / "spans.json"
    document = run_traced(small(name), spec, span_path)
    assert document["detail"]["checks_failed"] == []
    assert document["correct"]
    metrics = document["metrics"]
    assert list(metrics) == [metric["name"] for metric in spec["per_layer"]]
    for metric in spec["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert "bench.trace_overhead_share" in metrics
    assert metrics["core.decide_count"]["value"] > 0
    # every busy-seconds metric has its count, and they move together
    # (service.http_s is a difference of two measurements, not a span)
    for metric_name, emitted in metrics.items():
        counted = metric_name[:-2] + "_count"
        if (
            metric_name.endswith("_s")
            and counted in metrics
            and metric_name != "service.http_s"
        ):
            assert (emitted["value"] > 0) == (metrics[counted]["value"] > 0)

    log = SpanLog.load(span_path)
    assert len(log) == metrics["bench.span_count"]["value"] > 0
    assert log.nesting_errors() == []
    roots = [i for i, parent in enumerate(log.parent) if parent < 0]
    assert roots
    for index, parent in enumerate(log.parent):
        if parent >= 0:
            assert log.query[index] == log.query[parent]
    json.dumps(log.self_times())


def test_span_log_catches_bad_nesting(tmp_path):
    log = SpanLog()
    outer = log.name_id("outer")
    inner = log.name_id("inner")
    root = log.open(outer, -1, 3, 1.0)
    log.leaf(inner, 1.1, 1.4, root, 3)
    log.close(root, 2.0)
    assert log.nesting_errors() == []
    assert log.self_times()["outer"] == (pytest.approx(0.7), 1)
    assert log.self_times()["inner"] == (pytest.approx(0.3), 1)
    log.leaf(inner, 1.5, 2.5, root, 3)  # ends after its parent
    log.leaf(inner, 1.5, 1.6, root, NO_QUERY)  # another query's span
    errors = log.nesting_errors()
    assert len(errors) == 2
    assert "not inside parent" in errors[0] and "query id" in errors[1]
    log.dump(tmp_path / "log.json")
    assert SpanLog.load(tmp_path / "log.json").nesting_errors() == errors
