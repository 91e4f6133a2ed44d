"""Tests for the instrumentation layer (counters, events, probes)."""

import logging

import pytest

from repro.core.instrumentation import (
    DecisionEvent,
    Instrumentation,
    Probe,
)
from repro.core.policies.baselines import NoCachePolicy
from repro.core.proxy import BypassYieldProxy
from repro.federation import Federation
from repro.sim.reporting import format_decision_trace
from repro.sim.simulator import Simulator
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog


def event(index=0, served=False, loads=(), evictions=(),
          load_bytes=0, bypass_bytes=100):
    return DecisionEvent(
        index=index,
        source="simulator",
        policy="no-cache",
        granularity="table",
        served_from_cache=served,
        loads=tuple(loads),
        evictions=tuple(evictions),
        load_bytes=load_bytes,
        bypass_bytes=bypass_bytes,
        weighted_cost=float(load_bytes + bypass_bytes),
    )


def tiny_trace(n=4):
    queries = [
        PreparedQuery(
            index=i,
            sql=f"q{i}",
            template="t",
            yield_bytes=100,
            bypass_bytes=100,
            table_yields={"PhotoObj": 100.0},
            column_yields={},
            servers=("sdss",),
        )
        for i in range(n)
    ]
    return PreparedTrace("tiny", queries)


class TestInstrumentation:
    def test_counters_accumulate(self):
        instrumentation = Instrumentation()
        instrumentation.count("x")
        instrumentation.count("x", 2.5)
        assert instrumentation.counters["x"] == 3.5

    def test_record_decision_updates_counters_and_events(self):
        instrumentation = Instrumentation()
        instrumentation.record_decision(event(served=False))
        instrumentation.record_decision(
            event(index=1, served=True, loads=("PhotoObj",),
                  load_bytes=50, bypass_bytes=0)
        )
        assert instrumentation.counters["decisions"] == 2
        assert instrumentation.counters["decisions.served"] == 1
        assert instrumentation.counters["decisions.bypassed"] == 1
        assert instrumentation.counters["decisions.loads"] == 1
        assert instrumentation.counters["wan.load_bytes"] == 50
        assert instrumentation.counters["wan.bypass_bytes"] == 100
        assert len(instrumentation.events) == 2
        assert instrumentation.events[1].wan_bytes == 50

    def test_max_events_bounds_memory(self):
        instrumentation = Instrumentation(max_events=2)
        for i in range(5):
            instrumentation.record_decision(event(index=i))
        assert [e.index for e in instrumentation.events] == [3, 4]
        assert instrumentation.counters["decisions"] == 5

    def test_zero_max_events_disables_retention(self):
        instrumentation = Instrumentation(max_events=0)
        instrumentation.record_decision(event())
        assert len(instrumentation.events) == 0
        assert instrumentation.counters["decisions"] == 1

    def test_probe_receives_callbacks(self):
        seen = []

        class Recorder(Probe):
            def on_decision(self, evt):
                seen.append((evt.index, self.counters["decisions"]))

        recorder = Recorder()
        assert dict(recorder.counters) == {}  # not attached yet
        instrumentation = Instrumentation()
        instrumentation.add_probe(recorder)
        instrumentation.record_decision(event(index=9))
        # Told of the decision after its counters; reads the one store.
        assert seen == [(9, 1.0)]
        assert recorder.counters is instrumentation.counters
        instrumentation.count("x", 2)
        assert recorder.counters["x"] == 2

    def test_logging_integration(self, caplog):
        instrumentation = Instrumentation(logger="repro.test")
        with caplog.at_level(logging.DEBUG, logger="repro.test"):
            instrumentation.record_decision(event(index=3))
        assert any("q3" in record.message for record in caplog.records)

    def test_snapshot_and_reset(self):
        instrumentation = Instrumentation()
        instrumentation.count("a", 2)
        instrumentation.record_decision(event())
        snap = instrumentation.snapshot()
        assert snap["counters"]["a"] == 2
        assert "stages" not in snap
        assert snap["events"] == 1
        assert snap["events_seen"] == 1
        assert snap["events_truncated"] is False
        instrumentation.reset()
        cleared = instrumentation.snapshot()
        assert cleared["counters"] == {}
        assert cleared["events"] == 0
        assert cleared["events_seen"] == 0
        assert cleared["events_truncated"] is False

    def test_snapshot_counter_units(self):
        instrumentation = Instrumentation()
        instrumentation.record_decision(event(bypass_bytes=7))
        units = instrumentation.snapshot()["counter_units"]
        assert units["wan.bypass_bytes"] == "bytes"
        assert units["wan.weighted_cost"] == "cost"
        assert units["decisions"] == "count"

    def test_truncation_status(self):
        instrumentation = Instrumentation(max_events=2)
        for i in range(5):
            instrumentation.record_decision(event(index=i))
        assert instrumentation.events_seen == 5
        assert len(instrumentation.events) == 2
        assert instrumentation.events_truncated is True
        snap = instrumentation.snapshot()
        assert snap["events_truncated"] is True
        assert snap["events_seen"] == 5

    def test_merge_snapshot_round_trip(self):
        left = Instrumentation()
        left.count("a", 1)
        left.record_decision(event(index=0))
        right = Instrumentation()
        right.count("a", 2)
        right.count("b", 5)
        right.record_decision(event(index=1))

        merged = Instrumentation()
        merged.merge_snapshot(left.snapshot())
        merged.merge_snapshot(right.snapshot())
        assert merged.counters["a"] == 3
        assert merged.counters["b"] == 5
        assert merged.counters["decisions"] == 2
        assert merged.events_seen == 2
        # Event bodies do not cross a snapshot; the merged view says so.
        assert merged.events_truncated

    def test_merge_snapshot_rejects_newer_schema(self):
        instrumentation = Instrumentation()
        with pytest.raises(ValueError):
            instrumentation.merge_snapshot({"schema": 999, "counters": {}})

    def test_reset_snapshot_round_trip_is_merge_safe(self):
        # reset() must return the sink to a state whose snapshot merges
        # as the identity element.
        sink = Instrumentation()
        sink.count("x", 3)
        sink.reset()
        other = Instrumentation()
        other.count("x", 4)
        other.merge_snapshot(sink.snapshot())
        assert other.counters["x"] == 4
        assert other.events_seen == 0


class TestDriverEmission:
    def test_simulator_emits_decision_trace(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        instrumentation = Instrumentation()
        simulator = Simulator(
            federation, "table", instrumentation=instrumentation
        )
        simulator.run(tiny_trace(4), NoCachePolicy())
        assert instrumentation.counters["decisions"] == 4
        assert instrumentation.counters["decisions.bypassed"] == 4
        assert [e.index for e in instrumentation.events] == [0, 1, 2, 3]
        assert all(e.source == "simulator" for e in instrumentation.events)

    def test_proxy_emits_decisions_and_mediator_counters(self):
        federation = Federation.single_site(build_catalog(), "sdss")
        instrumentation = Instrumentation()
        proxy = BypassYieldProxy(
            federation,
            NoCachePolicy(),
            granularity="table",
            instrumentation=instrumentation,
        )
        proxy.query("SELECT objID FROM PhotoObj WHERE ra >= 0")
        assert instrumentation.counters["decisions"] == 1
        (evt,) = instrumentation.events
        assert evt.source == "proxy"
        assert evt.bypass_bytes == proxy.ledger.bypass_bytes
        assert instrumentation.counters["mediator.bypasses"] == 1
        assert instrumentation.counters["mediator.plan_misses"] == 1


class TestReportingIntegration:
    def test_format_decision_trace_renders_rows(self):
        events = [event(index=i) for i in range(30)]
        text = format_decision_trace(events, limit=5)
        lines = text.splitlines()
        assert "decision trace" in lines[0]
        assert "29" in text  # most recent events kept
        assert "24" not in text.split("decision")[0]  # limit respected
