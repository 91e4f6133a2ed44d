"""Unit tests for the metrics registry, probe, and text exposition."""

import pytest

from repro.core.instrumentation import DecisionEvent, Instrumentation
from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    Metric,
    MetricsProbe,
    MetricsRegistry,
    WindowedGauge,
    sanitize_metric_name,
)


def event(
    index=0, served=False, bypass=100, load=0, yield_bytes=200, tenant=""
):
    return DecisionEvent(
        index=index,
        source="simulator",
        policy="p",
        granularity="table",
        served_from_cache=served,
        loads=("T",) if load else (),
        evictions=(),
        load_bytes=load,
        bypass_bytes=bypass,
        weighted_cost=float(bypass + load),
        yield_bytes=yield_bytes,
        tenant=tenant,
    )


class TestPrimitives:
    def test_counter_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_merge_keeps_max(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.merge_value(3.0)
        assert gauge.value == 5.0
        gauge.merge_value(9.0)
        assert gauge.value == 9.0

    def test_windowed_gauge_bounds_memory(self):
        gauge = WindowedGauge("w", window=3)
        for value in (1, 2, 3, 4, 5):
            gauge.set(value)
        exposed = dict(gauge.expose())
        assert exposed["w"] == 5.0
        assert exposed["w_window_min"] == 3.0
        assert exposed["w_window_max"] == 5.0
        assert exposed["w_window_mean"] == 4.0

    def test_windowed_gauge_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            WindowedGauge("w", window=0)

    def test_log_histogram_buckets_power_of_two(self):
        histogram = LogHistogram("h")
        for value in (1, 2, 3, 1000):
            histogram.observe(value)
        assert histogram.bucket_for(1) == 0
        assert histogram.bucket_for(2) == 1
        assert histogram.bucket_for(3) == 2
        assert histogram.bucket_for(1000) == 10
        assert histogram.count == 4
        assert histogram.total == 1006.0

    def test_log_histogram_exposition_is_cumulative(self):
        histogram = LogHistogram("h")
        for value in (1, 2, 1024):
            histogram.observe(value)
        samples = dict(histogram.expose())
        assert samples['h_bucket{le="1"}'] == 1.0
        assert samples['h_bucket{le="2"}'] == 2.0
        assert samples['h_bucket{le="1024"}'] == 3.0
        assert samples['h_bucket{le="+Inf"}'] == 3.0
        assert samples["h_count"] == 3.0

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("wan.load-bytes") == "wan_load_bytes"


class TestRegistry:
    def test_get_or_create_is_idempotent(self, monkeypatch):
        registry = MetricsRegistry()
        first = registry.counter("c", "help")
        # A hit is a dict lookup: no throwaway metric is constructed.
        built = []
        monkeypatch.setattr(
            Metric, "__init__", lambda self, *args: built.append(self)
        )
        assert registry.counter("c") is first
        assert built == []

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(
            ConfigurationError,
            match="'m' already registered as Counter, not Gauge",
        ):
            registry.gauge("m")

    def test_render_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "Help line").inc(2)
        registry.gauge("repro_y").set(1.5)
        text = registry.render_prometheus()
        assert "# HELP repro_x_total Help line" in text
        assert "# TYPE repro_x_total counter" in text
        assert "repro_x_total 2" in text
        assert "repro_y 1.5" in text
        assert text.endswith("\n")

    def test_render_keeps_full_precision_past_six_digits(self):
        # %g-style rendering would round 1101376 to 1.10138e+06 on the
        # scrape page, breaking the exact tenant-sum == aggregate
        # conservation check that parses /metrics.
        registry = MetricsRegistry()
        registry.counter("repro_big_total").inc(1101376.0)
        registry.gauge("repro_frac").set(0.123456789012345)
        text = registry.render_prometheus()
        assert "repro_big_total 1101376" in text
        assert "1.10138e+06" not in text
        line = next(
            row
            for row in text.splitlines()
            if row.startswith("repro_frac ")
        )
        assert float(line.split()[1]) == 0.123456789012345

    def test_snapshot_merge_deterministic(self):
        def build(seed_values):
            registry = MetricsRegistry()
            for value in seed_values:
                registry.counter("c").inc(value)
                registry.histogram("h").observe(value)
            return registry

        a, b = build([1, 2]), build([4])
        merged = MetricsRegistry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        assert merged.counter("c").value == 7.0
        assert merged.histogram("h").count == 3

        # Merge order does not change counter/histogram totals.
        other = MetricsRegistry()
        other.merge_snapshot(b.snapshot())
        other.merge_snapshot(a.snapshot())
        assert other.counter("c").value == 7.0
        assert other.histogram("h").snapshot_value() == (
            merged.histogram("h").snapshot_value()
        )

    def test_merge_snapshot_ignores_unknown_types(self):
        registry = MetricsRegistry()
        registry.merge_snapshot(
            {"weird": {"type": "Mystery", "value": 1}, "junk": 3}
        )
        assert len(registry) == 0


class TestMetricsProbe:
    def test_decisions_feed_the_paper_quantities(self):
        registry = MetricsRegistry()
        sink = Instrumentation(max_events=0)
        occupancy = {"bytes": 0}
        sink.add_probe(
            MetricsProbe(registry, occupancy=lambda: occupancy["bytes"])
        )
        occupancy["bytes"] = 512
        sink.record_decision(event(0, served=False, bypass=100))
        sink.record_decision(
            event(1, served=True, bypass=0, yield_bytes=300)
        )
        assert registry.counter("repro_decisions_total").value == 2.0
        assert (
            registry.counter("repro_decisions_served_total").value == 1.0
        )
        assert (
            registry.counter("repro_wan_bypass_bytes_total").value == 100.0
        )
        assert registry.gauge("repro_hit_rate").value == 0.5
        assert registry.histogram("repro_query_yield_bytes").count == 2
        occupancy_gauge = registry.windowed_gauge(
            "repro_cache_occupancy_bytes"
        )
        assert dict(occupancy_gauge.expose())[
            "repro_cache_occupancy_bytes"
        ] == 512.0

    def test_stage_timers_become_counters(self):
        registry = MetricsRegistry()
        sink = Instrumentation()
        sink.add_probe(MetricsProbe(registry))
        with sink.stage("proxy.decide"):
            pass
        calls = registry.counter("repro_stage_proxy_decide_calls_total")
        assert calls.value == 1.0

    def test_tenant_partition_sums_to_aggregates(self):
        registry = MetricsRegistry()
        sink = Instrumentation(max_events=0)
        sink.add_probe(MetricsProbe(registry))
        sink.record_decision(event(0, bypass=100, tenant="alice"))
        sink.record_decision(event(1, load=250, bypass=0, tenant="bob"))
        sink.record_decision(event(2, served=True, bypass=0, tenant="alice"))
        sink.record_decision(event(3, bypass=40))  # untagged

        def tenant_sum(family):
            return sum(
                entry["value"]
                for name, entry in registry.snapshot().items()
                if name.startswith(f"repro_tenant_{family}_total{{")
            )

        wan_total = (
            registry.counter("repro_wan_load_bytes_total").value
            + registry.counter("repro_wan_bypass_bytes_total").value
        )
        assert tenant_sum("wan_bytes") == wan_total == 390.0
        assert (
            tenant_sum("decisions")
            == registry.counter("repro_decisions_total").value
        )
        assert (
            tenant_sum("served")
            == registry.counter("repro_decisions_served_total").value
        )
        body = registry.render_prometheus()
        assert 'repro_tenant_wan_bytes_total{tenant="alice"} 100' in body
        assert 'repro_tenant_wan_bytes_total{tenant="untagged"} 40' in body

    def test_labeled_series_share_one_header(self):
        registry = MetricsRegistry()
        sink = Instrumentation(max_events=0)
        sink.add_probe(MetricsProbe(registry))
        sink.record_decision(event(0, tenant="alice"))
        sink.record_decision(event(1, tenant="bob"))
        body = registry.render_prometheus()
        helps = [
            line
            for line in body.splitlines()
            if line.startswith("# HELP repro_tenant_wan_bytes_total")
        ]
        types = [
            line
            for line in body.splitlines()
            if line.startswith("# TYPE repro_tenant_wan_bytes_total")
        ]
        assert len(helps) == 1
        assert types == ["# TYPE repro_tenant_wan_bytes_total counter"]


class TestShardAttribution:
    def _event(self, index, shard="", peer_bytes=0, **kwargs):
        base = event(index, **kwargs)
        return DecisionEvent(
            **{
                **base.__dict__,
                "shard": shard,
                "peer_bytes": peer_bytes,
            }
        )

    def test_shard_partition_sums_to_aggregates(self):
        registry = MetricsRegistry()
        sink = Instrumentation(max_events=0)
        sink.add_probe(MetricsProbe(registry))
        sink.record_decision(self._event(0, shard="s0", bypass=100))
        sink.record_decision(
            self._event(1, shard="s1", load=250, bypass=0)
        )
        sink.record_decision(
            self._event(2, shard="s0", served=True, bypass=0)
        )

        def shard_sum(family):
            return sum(
                entry["value"]
                for name, entry in registry.snapshot().items()
                if name.startswith(f"repro_shard_{family}_total{{")
            )

        assert (
            shard_sum("decisions")
            == registry.counter("repro_decisions_total").value
        )
        assert shard_sum("wan_bytes") == 350.0
        body = registry.render_prometheus()
        assert 'repro_shard_wan_bytes_total{shard="s0"} 100' in body
        assert 'repro_shard_decisions_total{shard="s1"} 1' in body

    def test_peer_bytes_get_their_own_family(self):
        registry = MetricsRegistry()
        sink = Instrumentation(max_events=0)
        sink.add_probe(MetricsProbe(registry))
        sink.record_decision(
            self._event(0, shard="s0", load=0, bypass=0, peer_bytes=80)
        )
        body = registry.render_prometheus()
        assert 'repro_shard_peer_bytes_total{shard="s0"} 80' in body
        # Peer traffic never inflates the shard's WAN series.
        assert 'repro_shard_wan_bytes_total{shard="s0"} 0' in body

    def test_untagged_decisions_add_no_shard_series(self):
        registry = MetricsRegistry()
        sink = Instrumentation(max_events=0)
        sink.add_probe(MetricsProbe(registry))
        sink.record_decision(event(0))
        assert not any(
            name.startswith("repro_shard_")
            for name in registry.snapshot()
        )
