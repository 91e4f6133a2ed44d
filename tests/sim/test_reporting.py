"""Unit tests for plain-text report rendering."""

from repro.core.instrumentation import DecisionEvent
from repro.sim.reporting import (
    ascii_chart,
    breakdown_rows,
    cost_series_chart,
    format_breakdown,
    format_decision_trace,
    format_table,
    sweep_chart,
)
from repro.sim.results import (
    CostBreakdown,
    SimulationResult,
    SweepPoint,
    SweepResult,
)


def event(index):
    return DecisionEvent(
        index=index,
        source="sim",
        policy="p",
        granularity="table",
        served_from_cache=False,
        loads=(),
        evictions=(),
        load_bytes=0,
        bypass_bytes=10,
        weighted_cost=10.0,
    )


def result(name, bypass, load, series=()):
    sim = SimulationResult(
        policy_name=name,
        granularity="table",
        capacity_bytes=100,
        queries=10,
        breakdown=CostBreakdown(bypass_bytes=bypass, load_bytes=load),
        sequence_bytes=1000.0,
    )
    sim.cumulative_bytes = list(series)
    return sim


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["long-name", 22.0]]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "----" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5678], [0.0001], [1.23]])
        assert "1.23e+03" in text
        assert "0.0001" in text
        assert "1.23" in text


class TestBreakdowns:
    def test_rows(self):
        rows = breakdown_rows(
            {"p": result("p", 2e6, 1e6)}, unit=1e6
        )
        assert rows == [["p", 2.0, 1.0, 3.0]]

    def test_format_breakdown(self):
        text = format_breakdown(
            {"p": result("p", 2e6, 1e6)},
            title="Table X",
            sequence_bytes=10e6,
        )
        assert "Table X" in text
        assert "sequence cost: 10.00 MB" in text
        assert "bypass (MB)" in text


class TestAsciiChart:
    def test_renders_points(self):
        text = ascii_chart(
            {"s": [(0.0, 1.0), (1.0, 2.0)]},
            title="Chart",
            x_label="x",
            y_label="y",
        )
        assert "Chart" in text
        assert "*" in text
        assert "legend: *=s" in text

    def test_empty_series(self):
        assert "(no data)" in ascii_chart({}, title="Empty")

    def test_multiple_series_distinct_markers(self):
        text = ascii_chart(
            {"a": [(0.0, 1.0)], "b": [(1.0, 2.0)]},
        )
        assert "*=a" in text
        assert "o=b" in text

    def test_log_scale_labels(self):
        text = ascii_chart(
            {"s": [(0.0, 10.0), (1.0, 1000.0)]}, log_y=True
        )
        assert "top=1e+03" in text

    def test_constant_series_does_not_crash(self):
        text = ascii_chart({"s": [(0.0, 5.0), (1.0, 5.0)]})
        assert "*" in text


class TestExperimentCharts:
    def test_sweep_chart(self):
        sweep = SweepResult(granularity="table", database_bytes=1000)
        for fraction in (0.1, 0.5, 1.0):
            sweep.points.append(
                SweepPoint("gds", fraction, int(1000 * fraction), 500.0)
            )
            sweep.points.append(
                SweepPoint("static", fraction, int(1000 * fraction), 50.0)
            )
        text = sweep_chart(sweep, "Figure 9")
        assert "Figure 9" in text
        assert "% cache" in text

    def test_cost_series_chart(self):
        results = {
            "a": result("a", 10, 0, series=[1, 2, 3, 4]),
            "b": result("b", 10, 0, series=[2, 4, 6, 8]),
        }
        text = cost_series_chart(results, "Figure 7")
        assert "Figure 7" in text
        assert "query number" in text

    def test_cost_series_skips_empty(self):
        results = {"a": result("a", 10, 0, series=[])}
        text = cost_series_chart(results, "F")
        assert "(no data)" in text


class TestEdgeCases:
    """Degenerate inputs every dashboard entry point must survive."""

    def test_single_point_ascii_chart(self):
        # One point: x and y spans are zero; the fallback span of 1.0
        # must keep the grid math finite.
        text = ascii_chart({"s": [(0.5, 42.0)]}, title="One")
        assert "One" in text
        assert "*" in text
        assert "top=42" in text

    def test_single_point_ascii_chart_log_scale(self):
        text = ascii_chart({"s": [(0.0, 100.0)]}, log_y=True)
        assert "top=100" in text

    def test_single_point_sweep_chart(self):
        sweep = SweepResult(granularity="table", database_bytes=1000)
        sweep.points.append(SweepPoint("gds", 0.3, 300, 500.0))
        text = sweep_chart(sweep, "Figure 9")
        assert "Figure 9" in text
        assert "*=gds" in text

    def test_sweep_chart_zero_bytes_point(self):
        # total_bytes 0 would break the log axis; sweep_chart clamps.
        sweep = SweepResult(granularity="table", database_bytes=1000)
        sweep.points.append(SweepPoint("static", 1.0, 1000, 0.0))
        text = sweep_chart(sweep, "F")
        assert "*=static" in text

    def test_single_point_cost_series_chart(self):
        results = {"a": result("a", 10, 0, series=[7.0])}
        text = cost_series_chart(results, "F7")
        assert "F7" in text
        assert "*=a" in text

    def test_empty_sweep_chart(self):
        sweep = SweepResult(granularity="table", database_bytes=1000)
        assert "(no data)" in sweep_chart(sweep, "F")

    def test_format_decision_trace_empty(self):
        text = format_decision_trace([])
        assert "decision trace" in text
        assert "query" in text

    def test_format_decision_trace_limit_zero_keeps_all(self):
        text = format_decision_trace(
            [event(i) for i in range(3)], limit=0
        )
        assert text.count("sim") == 3
