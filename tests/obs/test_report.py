"""Tests for the ``repro-report`` CLI (render + regression diffing).

Acceptance criteria exercised here:

* diffing two traces of the same seeded run exits 0 with zero WAN-byte
  delta;
* diffing traces from two different policies exits non-zero and prints
  a per-metric regression table.
"""

import shutil

import pytest

from repro.core.instrumentation import Instrumentation
from repro.federation import Federation
from repro.obs.manifest import RunManifest
from repro.obs.report import (
    MetricDelta,
    diff_metrics,
    main,
    result_from_trace,
)
from repro.obs.trace_io import TraceWriter, read_trace
from repro.sim.runner import run_single
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog


def make_trace(n=30, name="report-unit"):
    queries = []
    for i in range(n):
        table = "PhotoObj" if i % 4 else "SpecObj"
        queries.append(
            PreparedQuery(
                index=i,
                sql=f"q{i}",
                template="t",
                yield_bytes=120,
                bypass_bytes=120,
                table_yields={table: 120.0},
                column_yields={f"{table}.objID": 120.0},
                servers=("sdss",),
            )
        )
    return PreparedTrace(name, queries)


def record_run(tmp_path, policy_name, filename=None):
    """Simulate one policy and persist its decision trace."""
    return run_and_record(tmp_path, policy_name, filename)[0]


def run_and_record(tmp_path, policy_name, filename=None):
    """(trace path, live result) of one simulated policy."""
    federation = Federation.single_site(build_catalog(), "sdss")
    trace = make_trace()
    capacity = federation.total_database_bytes() // 3
    manifest = RunManifest(
        workload=trace.name,
        policy=policy_name,
        granularity="table",
        capacity_bytes=capacity,
    )
    sink = Instrumentation(max_events=0)
    path = tmp_path / (filename or f"trace-{policy_name}.jsonl")
    with TraceWriter(path, manifest) as writer:
        sink.add_probe(writer)
        result = run_single(
            trace,
            federation,
            policy_name,
            capacity,
            "table",
            record_series=False,
            instrumentation=sink,
        )
    return path, result


class TestSummaries:
    def test_result_from_trace_matches_live_totals(self, tmp_path):
        path, live = run_and_record(tmp_path, "rate-profile")
        manifest, events = read_trace(path)
        rebuilt = result_from_trace(manifest, events)
        assert rebuilt.queries == live.queries == len(events)
        assert rebuilt.total_bytes == live.total_bytes
        assert rebuilt.served_queries == live.served_queries
        assert rebuilt.yield_bytes == live.yield_bytes == 30 * 120
        assert rebuilt.byte_yield_hit_rate == live.byte_yield_hit_rate
        assert rebuilt.cumulative_bytes[-1] == live.total_bytes

    def test_metric_delta_gating(self):
        worse = MetricDelta("m", 100.0, 110.0, False, True)
        assert worse.relative_regression() == pytest.approx(0.1)
        assert worse.is_regression(0.05)
        assert not worse.is_regression(0.2)
        ungated = MetricDelta("m", 100.0, 110.0, False, False)
        assert not ungated.is_regression(0.0)
        improved = MetricDelta("m", 100.0, 90.0, False, True)
        assert improved.relative_regression() == 0.0

    def test_zero_baseline_worsening_is_infinite(self):
        delta = MetricDelta("m", 0.0, 5.0, False, True)
        assert delta.relative_regression() == float("inf")
        assert delta.is_regression(10.0)

    def test_diff_metrics_gated_set(self):
        manifest = RunManifest(
            workload="w", policy="p", granularity="table",
            capacity_bytes=1,
        )
        empty = result_from_trace(manifest, [])
        gated = {d.name for d in diff_metrics(empty, empty) if d.gated}
        assert gated == {
            "wan_bytes", "weighted_cost", "hit_rate",
            "byte_yield_hit_rate", "availability",
        }


class TestCli:
    def test_single_trace_report(self, tmp_path, capsys):
        path = record_run(tmp_path, "rate-profile")
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "rate-profile" in out
        assert "WAN total bytes" in out
        assert "decision trace" in out

    def test_same_run_diff_exits_zero_with_zero_delta(
        self, tmp_path, capsys
    ):
        # Two traces of the same deterministic run — the acceptance
        # criterion for the CI gate's negative case.
        first = record_run(tmp_path, "rate-profile", "a.jsonl")
        second = record_run(tmp_path, "rate-profile", "b.jsonl")
        assert main(["--diff", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "verdict: no regressions" in out
        wan_row = next(
            line for line in out.splitlines()
            if line.startswith("wan_bytes")
        )
        assert "unchanged" in wan_row

    def test_identical_file_diff_exits_zero(self, tmp_path, capsys):
        path = record_run(tmp_path, "rate-profile")
        copy = tmp_path / "copy.jsonl"
        shutil.copy(path, copy)
        assert main(["--diff", str(path), str(copy)]) == 0

    def test_cross_policy_diff_flags_regressions(self, tmp_path, capsys):
        # rate-profile (baseline) vs no-cache (candidate): every query
        # bypasses, so WAN bytes and hit rate must both regress.
        base = record_run(tmp_path, "rate-profile")
        cand = record_run(tmp_path, "no-cache")
        assert main(["--diff", str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSIONS FOUND" in out
        assert "REGRESSION" in out
        assert "regression gate" in out
        for metric in ("wan_bytes", "hit_rate", "weighted_cost"):
            assert metric in out

    def test_threshold_tolerates_small_regressions(self, tmp_path):
        base = record_run(tmp_path, "rate-profile")
        cand = record_run(tmp_path, "no-cache")
        # An absurdly large threshold turns the gate off entirely...
        assert (
            main(["--diff", str(base), str(cand), "--threshold", "1e9"])
            == 0
        )
        # ...while zero threshold keeps it strict.
        assert main(["--diff", str(base), str(cand)]) == 1

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        path = record_run(tmp_path, "rate-profile")
        assert main([str(path), str(path)]) == 2
        assert main(["--diff", str(path)]) == 2
        assert main([str(path), "--threshold", "-1"]) == 2
        assert main([str(tmp_path / "missing.jsonl")]) == 2

    def test_empty_trace_renders(self, tmp_path, capsys):
        manifest = RunManifest(
            workload="w", policy="p", granularity="table",
            capacity_bytes=1,
        )
        path = tmp_path / "empty-run.jsonl"
        TraceWriter(path, manifest).close()
        assert main([str(path)]) == 0
        assert (
            "trace holds no decision events" in capsys.readouterr().out
        )


def record_traced_run(tmp_path, policy_name="rate-profile"):
    """Simulate one policy, persisting both the decision trace and the
    span file.  Returns (trace_path, span_path)."""
    from repro.obs.spans import SpanTracer, SpanWriter
    from repro.sim.runner import build_policy
    from repro.sim.simulator import Simulator

    federation = Federation.single_site(build_catalog(), "sdss")
    trace = make_trace()
    capacity = federation.total_database_bytes() // 3
    manifest = RunManifest(
        workload=trace.name,
        policy=policy_name,
        granularity="table",
        capacity_bytes=capacity,
    )
    sink = Instrumentation(max_events=0)
    tracer = SpanTracer(seed=7, run_label=policy_name, wall_clock=False)
    trace_path = tmp_path / f"run-{policy_name}.jsonl"
    span_path = tmp_path / f"run-{policy_name}.spans.jsonl"
    span_writer = tracer.add_sink(SpanWriter(span_path, tracer))
    with TraceWriter(trace_path, manifest) as writer:
        sink.add_probe(writer)
        policy = build_policy(
            policy_name, capacity, trace, federation, "table"
        )
        Simulator(
            federation, "table", instrumentation=sink, tracer=tracer
        ).run(trace, policy)
    span_writer.close()
    return trace_path, span_path


class TestFlamegraphCli:
    def test_renders_stage_tree(self, tmp_path, capsys):
        _, span_path = record_traced_run(tmp_path)
        assert main([str(span_path), "--flamegraph"]) == 0
        out = capsys.readouterr().out
        assert "query" in out
        assert "decide" in out
        assert "incl%" in out
        assert "spans" in out  # header line with the span count

    def test_missing_span_file_exits_two(self, tmp_path, capsys):
        assert (
            main([str(tmp_path / "nope.spans.jsonl"), "--flamegraph"])
            == 2
        )

    def test_empty_span_file_exits_two(self, tmp_path, capsys):
        from repro.obs.spans import SpanTracer, SpanWriter

        tracer = SpanTracer(seed=1, run_label="empty")
        path = tmp_path / "empty.spans.jsonl"
        SpanWriter(path, tracer).close()
        assert main([str(path), "--flamegraph"]) == 2
        assert "no spans" in capsys.readouterr().err

    def test_torn_span_file_reports_prefix(self, tmp_path, capsys):
        _, span_path = record_traced_run(tmp_path)
        text = span_path.read_text(encoding="utf-8")
        span_path.write_text(text[:-20], encoding="utf-8")
        assert main([str(span_path), "--flamegraph"]) == 0
        assert "torn line" in capsys.readouterr().err


class TestSloCli:
    def _spec(self, tmp_path, objectives):
        import json

        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps({"name": "test", "objectives": objectives}),
            encoding="utf-8",
        )
        return path

    def test_holding_slo_exits_zero(self, tmp_path, capsys):
        trace_path, _ = record_traced_run(tmp_path)
        spec = self._spec(
            tmp_path, [{"kind": "availability", "target": 0.5}]
        )
        assert main([str(trace_path), "--slo", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "overall: OK" in out

    def test_violated_slo_exits_one(self, tmp_path, capsys):
        trace_path, _ = record_traced_run(tmp_path, "no-cache")
        # A 1-byte per-query WAN budget that bypass traffic must bust.
        spec = self._spec(
            tmp_path,
            [
                {
                    "kind": "wan_per_query_bytes",
                    "target": 0.99,
                    "budget_bytes": 1,
                }
            ],
        )
        assert main([str(trace_path), "--slo", str(spec)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "overall: FAILING" in out

    def test_stage_latency_consumes_spans(self, tmp_path, capsys):
        trace_path, span_path = record_traced_run(tmp_path)
        spec = self._spec(
            tmp_path,
            [
                {
                    "name": "decide-p99",
                    "kind": "stage_latency_p99",
                    "target": 0.5,
                    "stage": "decide",
                    "threshold_ticks": 1000,
                }
            ],
        )
        assert (
            main(
                [
                    str(trace_path),
                    "--slo",
                    str(spec),
                    "--spans",
                    str(span_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decide-p99" in out
        # The spans actually fed the objective (non-zero observations).
        row = next(
            line for line in out.splitlines() if "decide-p99" in line
        )
        total = int(row.split()[-2])
        assert total == 30  # one decide span per query

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        trace_path, _ = record_traced_run(tmp_path)
        assert (
            main(
                [str(trace_path), "--slo", str(tmp_path / "nope.json")]
            )
            == 2
        )

    def test_modes_mutually_exclusive(self, tmp_path, capsys):
        trace_path, span_path = record_traced_run(tmp_path)
        spec = self._spec(
            tmp_path, [{"kind": "availability", "target": 0.5}]
        )
        assert (
            main(
                [str(span_path), "--flamegraph", "--slo", str(spec)]
            )
            == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err
