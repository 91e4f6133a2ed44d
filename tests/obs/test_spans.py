"""Tests for hierarchical span tracing (:mod:`repro.obs.spans`)."""

import json

import pytest

from repro.core.policies.rate_profile import RateProfilePolicy
from repro.errors import ConfigurationError
from repro.federation import Federation
from repro.obs.spans import (
    STAGE_ACCOUNT,
    STAGE_DECIDE,
    STAGE_QUERY,
    Span,
    SpanReader,
    SpanTracer,
    SpanWriter,
    aggregate_flame,
    render_flamegraph,
    span_id_for,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim.simulator import Simulator
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog


def prepared_query(index, sql, yield_bytes, table_yields, tenant=""):
    return PreparedQuery(
        index=index,
        sql=sql,
        template="t",
        yield_bytes=yield_bytes,
        bypass_bytes=yield_bytes,
        table_yields=table_yields,
        column_yields={},
        servers=("sdss",),
        tenant=tenant,
    )


def small_trace(tenants=("", "", "", "")):
    queries = [
        prepared_query(0, "q0", 100, {"PhotoObj": 100.0}, tenants[0]),
        prepared_query(1, "q1", 100, {"PhotoObj": 100.0}, tenants[1]),
        prepared_query(2, "q2", 40, {"SpecObj": 40.0}, tenants[2]),
        prepared_query(3, "q3", 100, {"PhotoObj": 100.0}, tenants[3]),
    ]
    return PreparedTrace("unit", queries)


def federation():
    return Federation.single_site(build_catalog(), "sdss")


class TestSpanIds:
    def test_deterministic(self):
        assert span_id_for(7, 3, "decide") == span_id_for(7, 3, "decide")
        assert span_id_for(7, 3, "decide") != span_id_for(8, 3, "decide")
        assert span_id_for(7, 3, "decide") != span_id_for(7, 4, "decide")

    def test_shape(self):
        span_id = span_id_for(0, "trace", "run")
        assert len(span_id) == 16
        int(span_id, 16)  # hex


class TestSpanTracer:
    def test_parenting_and_inheritance(self):
        tracer = SpanTracer(seed=1, keep_spans=True, wall_clock=False)
        root = tracer.start(STAGE_QUERY, index=5, tenant="alice")
        child = tracer.start(STAGE_DECIDE)  # inherits index + tenant
        tracer.finish(child)
        tracer.finish(root, bytes_moved=40)
        spans = {span.name: span for span in tracer.spans}
        assert spans[STAGE_DECIDE].parent_id == spans[STAGE_QUERY].span_id
        assert spans[STAGE_DECIDE].index == 5
        assert spans[STAGE_DECIDE].tenant == "alice"
        assert spans[STAGE_QUERY].parent_id == ""
        assert spans[STAGE_QUERY].bytes_moved == 40

    def test_logical_clock_orders_spans(self):
        tracer = SpanTracer(keep_spans=True, wall_clock=False)
        root = tracer.start("a")
        child = tracer.start("b")
        tracer.finish(child)
        tracer.finish(root)
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["a"].start < by_name["b"].start
        assert by_name["b"].end < by_name["a"].end
        assert by_name["a"].duration > by_name["b"].duration

    def test_dangling_children_closed_on_finish(self):
        tracer = SpanTracer(keep_spans=True, wall_clock=False)
        root = tracer.start("root")
        tracer.start("forgotten")
        tracer.finish(root)
        names = [span.name for span in tracer.spans]
        assert names == ["forgotten", "root"]

    def test_attrs_sorted_in_span(self):
        tracer = SpanTracer(keep_spans=True, wall_clock=False)
        active = tracer.start("s", zeta=1)
        active.set("alpha", 2)
        tracer.finish(active, beta=3)
        (span,) = tracer.spans
        assert [key for key, _ in span.attrs] == ["alpha", "beta", "zeta"]

    def test_reset_rewinds_clock(self):
        tracer = SpanTracer(keep_spans=True, wall_clock=False)
        tracer.finish(tracer.start("a"))
        first = tracer.spans[0]
        tracer.reset()
        assert tracer.spans == [] and tracer.spans_seen == 0
        tracer.finish(tracer.start("a"))
        again = tracer.spans[0]
        assert (again.start, again.end) == (first.start, first.end)
        assert again.span_id == first.span_id


class TestSpanSerialization:
    def test_roundtrip_drops_wall_seconds(self):
        span = Span(
            trace_id="t" * 16,
            span_id="a" * 16,
            parent_id="b" * 16,
            name="load",
            index=3,
            tenant="alice",
            start=10,
            end=14,
            bytes_moved=512,
            attrs=(("object", "PhotoObj"), ("server", "sdss")),
            wall_seconds=0.25,
        )
        data = span.to_json()
        assert "wall_seconds" not in json.dumps(data)
        restored = Span.from_json(data)
        assert restored.to_json() == data
        assert restored.wall_seconds is None
        assert restored.duration == 4

    def test_empty_attrs_omitted(self):
        span = Span("t", "s", "", "decide", 0, "", 1, 2)
        assert "attrs" not in span.to_json()


class TestSpanFile:
    def _traced_run(self, tmp_path, name, seed=11):
        tracer = SpanTracer(seed=seed, run_label="unit", wall_clock=False)
        path = tmp_path / name
        writer = tracer.add_sink(SpanWriter(path, tracer))
        simulator = Simulator(federation(), "table", tracer=tracer)
        simulator.run(
            small_trace(("alice", "bob", "alice", "")),
            RateProfilePolicy(200),
        )
        writer.close()
        return path

    def test_writer_reader_roundtrip(self, tmp_path):
        path = self._traced_run(tmp_path, "spans.jsonl")
        reader = SpanReader(path)
        header, spans = reader.header, reader.read_all()
        assert header["schema"] == 1
        assert header["seed"] == 11
        assert header["run_label"] == "unit"
        assert spans, "traced run produced no spans"
        names = {span.name for span in spans}
        assert {STAGE_QUERY, STAGE_DECIDE, STAGE_ACCOUNT} <= names
        roots = [span for span in spans if span.name == STAGE_QUERY]
        assert len(roots) == 4
        assert {span.tenant for span in roots} == {"alice", "bob", ""}

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        first = self._traced_run(tmp_path, "a.jsonl", seed=21)
        second = self._traced_run(tmp_path, "b.jsonl", seed=21)
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_changes_ids_not_shape(self, tmp_path):
        first = self._traced_run(tmp_path, "a.jsonl", seed=21)
        second = self._traced_run(tmp_path, "b.jsonl", seed=22)
        assert first.read_bytes() != second.read_bytes()
        spans_a = SpanReader(first).read_all()
        spans_b = SpanReader(second).read_all()
        assert [s.name for s in spans_a] == [s.name for s in spans_b]
        assert [s.start for s in spans_a] == [s.start for s in spans_b]

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = self._traced_run(tmp_path, "spans.jsonl")
        full = SpanReader(path).read_all()
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) - 25], encoding="utf-8")
        reader = SpanReader(path)
        partial = reader.read_all()
        assert reader.truncated
        assert len(partial) == len(full) - 1
        assert [s.span_id for s in partial] == [
            s.span_id for s in full[:-1]
        ]

    def test_malformed_middle_line_raises(self, tmp_path):
        path = self._traced_run(tmp_path, "spans.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = "{not json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reader = SpanReader(path)
        with pytest.raises(ConfigurationError, match="malformed span"):
            list(reader)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such span file"):
            SpanReader(tmp_path / "nope.jsonl")

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not_a_header": 1}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="span-trace header"):
            SpanReader(path)


class TestChromeExport:
    def test_tenants_get_swimlanes(self, tmp_path):
        tracer = SpanTracer(seed=3, keep_spans=True, wall_clock=False)
        a = tracer.start("query", index=0, tenant="alice")
        tracer.finish(a, bytes_moved=10)
        b = tracer.start("query", index=1, tenant="bob")
        tracer.finish(b)
        payload = to_chrome_trace(tracer.spans, label="unit")
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in slices} == {1, 2}
        thread_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {"alice", "bob"}
        assert slices[0]["args"]["bytes"] == 10

        out = write_chrome_trace(tracer.spans, tmp_path / "trace.json")
        loaded = json.loads(out.read_text(encoding="utf-8"))
        assert loaded["displayTimeUnit"] == "ms"

    def test_zero_duration_rendered_visible(self):
        span = Span("t", "s", "", "decide", 0, "", 5, 5)
        payload = to_chrome_trace([span])
        (event,) = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert event["dur"] == 1


class TestFlamegraph:
    def test_aggregation_inclusive_exclusive(self):
        tracer = SpanTracer(keep_spans=True, wall_clock=False)
        for index in range(3):
            root = tracer.start("query", index=index)
            child = tracer.start("decide")
            tracer.finish(child)
            tracer.finish(root, bytes_moved=100)
        root = aggregate_flame(tracer.spans)
        query = root.children["query"]
        decide = query.children["decide"]
        assert query.count == 3
        assert decide.count == 3
        assert query.bytes_moved == 300
        assert query.exclusive == query.inclusive - decide.inclusive
        assert root.inclusive == query.inclusive

    def test_render_contains_stages(self):
        tracer = SpanTracer(keep_spans=True, wall_clock=False)
        root = tracer.start("query", index=0)
        tracer.finish(tracer.start("decide"))
        tracer.finish(root)
        text = render_flamegraph(aggregate_flame(tracer.spans))
        assert "query" in text
        assert "decide" in text
        assert "incl%" in text


class TestTracingEquivalence:
    """Tracing must never change what the run decides or charges."""

    @pytest.mark.parametrize("tracer_off", [None])
    def test_decisions_and_wan_identical(self, tracer_off):
        from repro.core.instrumentation import Instrumentation

        def run(tracer):
            sink = Instrumentation()
            result = Simulator(
                federation(),
                "table",
                instrumentation=sink,
                tracer=tracer,
            ).run(small_trace(), RateProfilePolicy(200))
            return result, sink

        traced_result, traced_sink = run(
            SpanTracer(seed=9, wall_clock=False)
        )
        plain_result, plain_sink = run(tracer_off)
        assert traced_result.total_bytes == plain_result.total_bytes
        assert traced_result.breakdown == plain_result.breakdown
        assert traced_result.hit_rate == plain_result.hit_rate
        assert [event.to_json() for event in traced_sink.events] == [
            event.to_json() for event in plain_sink.events
        ]
