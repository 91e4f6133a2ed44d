"""Unit tests for workload statistics."""

import pytest

from repro.workload.stats import format_stats, trace_stats, yield_stats
from repro.workload.trace import (
    PreparedQuery,
    PreparedTrace,
    Trace,
    TraceRecord,
)


def make_trace():
    trace = Trace("stats")
    entries = [
        ("region_photo", "imaging"),
        ("region_photo", "imaging"),
        ("identity", "imaging"),
        ("spec_agg", "spectro"),
        ("frame_sky", "cold"),
    ]
    for i, (template, theme) in enumerate(entries):
        trace.append(TraceRecord(i, f"q{i}", template, theme))
    return trace


def make_prepared(yields_by_template):
    queries = []
    index = 0
    for template, yields in yields_by_template.items():
        for amount in yields:
            queries.append(
                PreparedQuery(
                    index=index,
                    sql=f"q{index}",
                    template=template,
                    yield_bytes=amount,
                    bypass_bytes=amount,
                    table_yields={"T": float(amount)},
                    column_yields={},
                    servers=("sdss",),
                )
            )
            index += 1
    return PreparedTrace("stats", queries)


class TestTraceStats:
    def test_counts(self):
        stats = trace_stats(make_trace())
        assert stats.num_queries == 5
        assert stats.template_counts["region_photo"] == 2
        assert stats.theme_counts["imaging"] == 3

    def test_top_templates(self):
        stats = trace_stats(make_trace())
        assert stats.top_templates(1) == [("region_photo", 2)]

    def test_empty_trace(self):
        stats = trace_stats(Trace("empty"))
        assert stats.num_queries == 0
        assert stats.template_counts == {}


class TestYieldStats:
    def test_distribution(self):
        prepared = make_prepared({"a": [0, 100, 200, 300], "b": [400]})
        stats = yield_stats(prepared)
        assert stats.num_queries == 5
        assert stats.total_bytes == 1000
        assert stats.min_bytes == 0
        assert stats.max_bytes == 400
        assert stats.median_bytes == 200.0
        assert stats.mean_bytes == 200.0
        assert stats.zero_yield_queries == 1

    def test_p90_interpolates(self):
        prepared = make_prepared({"a": [0, 10, 20, 30, 40, 50,
                                        60, 70, 80, 90, 100]})
        stats = yield_stats(prepared)
        assert stats.p90_bytes == pytest.approx(90.0)

    def test_template_yield_and_concentration(self):
        prepared = make_prepared({"hot": [900], "cold": [50, 50]})
        stats = yield_stats(prepared)
        assert stats.template_yield == {"hot": 900, "cold": 100}
        assert stats.top_yielding_templates(1) == [("hot", 900)]
        assert stats.concentration(1) == pytest.approx(0.9)

    def test_empty_prepared(self):
        stats = yield_stats(PreparedTrace("empty"))
        assert stats.num_queries == 0
        assert stats.total_bytes == 0
        assert stats.concentration() == 0.0


class TestFormatStats:
    def test_composition_only(self):
        text = format_stats(trace_stats(make_trace()))
        assert "queries: 5" in text
        assert "imaging=3" in text
        assert "region_photo x2" in text

    def test_with_yields(self):
        prepared = make_prepared({"a": [1000000]})
        text = format_stats(
            trace_stats(make_trace()), yield_stats(prepared)
        )
        assert "total 1.00 MB" in text
        assert "heaviest templates" in text
