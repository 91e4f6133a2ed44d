"""Unit tests for the experiment runner (comparisons and sweeps)."""

import os

import pytest

from repro.core.policies.baselines import StaticPolicy
from repro.errors import CacheError
from repro.federation import Federation
from repro.sim.runner import (
    build_policy,
    compare_policies,
    run_single,
    run_sweep,
)
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog


def make_trace(n=20, name="unit"):
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


@pytest.fixture
def federation():
    return Federation.single_site(build_catalog(), "sdss")


@pytest.fixture
def trace():
    return make_trace(20)


class TestBuildPolicy:
    def test_registered_policy(self, federation, trace):
        policy = build_policy(
            "lru", 1000, trace, federation, "table"
        )
        assert policy.name == "lru"
        assert policy.capacity_bytes == 1000

    def test_static_policy_preselected(self, federation, trace):
        capacity = federation.object_size("PhotoObj") + 10
        policy = build_policy(
            "static", capacity, trace, federation, "table"
        )
        assert isinstance(policy, StaticPolicy)
        assert "PhotoObj" in policy.store

    def test_unknown_policy_raises(self, federation, trace):
        with pytest.raises(CacheError):
            build_policy("alchemy", 1000, trace, federation, "table")


class TestRunners:
    def test_run_single(self, federation, trace):
        result = run_single(trace, federation, "no-cache", 100, "table")
        assert result.total_bytes == 20 * 120

    def test_compare_policies_returns_all(self, federation, trace):
        results = compare_policies(
            trace,
            federation,
            capacity_bytes=federation.total_database_bytes(),
            granularity="table",
            policies=("no-cache", "gds", "static"),
        )
        assert set(results) == {"no-cache", "gds", "static"}
        assert results["no-cache"].total_bytes >= results[
            "static"
        ].total_bytes

    def test_sweep_structure(self, federation, trace):
        sweep = run_sweep(
            trace,
            federation,
            granularity="table",
            fractions=(0.5, 1.0),
            policies=("no-cache", "static"),
        )
        assert len(sweep.points) == 4
        assert sweep.policies() == ["no-cache", "static"]
        halves = sweep.series("static")
        assert [p.cache_fraction for p in halves] == [0.5, 1.0]

    def test_static_improves_with_capacity(self, federation, trace):
        sweep = run_sweep(
            trace,
            federation,
            granularity="table",
            fractions=(0.2, 1.0),
            policies=("static",),
        )
        small, large = sweep.series("static")
        assert large.total_bytes <= small.total_bytes

    def test_bad_fraction_rejected(self, federation, trace):
        with pytest.raises(CacheError):
            run_sweep(
                trace, federation, fractions=(0.0,), policies=("static",)
            )

    def test_bad_fraction_rejected_before_any_work(self, federation, trace):
        # Validation happens before cells are dispatched, parallel or not.
        with pytest.raises(CacheError):
            run_sweep(
                trace,
                federation,
                fractions=(0.5, 1.5),
                policies=("static",),
                parallel=True,
            )


class TestParallelExecution:
    """ISSUE acceptance: parallel results identical to serial, in
    deterministic order, while exercising multiple worker processes."""

    POLICIES = ("rate-profile", "online-by", "gds", "static", "no-cache")

    def test_compare_policies_parallel_matches_serial(self, federation):
        trace = make_trace(400)
        capacity = federation.total_database_bytes() // 2
        serial = compare_policies(
            trace,
            federation,
            capacity,
            "table",
            policies=self.POLICIES,
            record_series=False,
        )
        parallel = compare_policies(
            trace,
            federation,
            capacity,
            "table",
            policies=self.POLICIES,
            record_series=False,
            parallel=True,
            max_workers=2,
        )
        assert list(parallel) == list(serial) == list(self.POLICIES)
        for name in self.POLICIES:
            assert parallel[name].total_bytes == serial[name].total_bytes
            assert (
                parallel[name].breakdown.bypass_bytes
                == serial[name].breakdown.bypass_bytes
            )
            assert (
                parallel[name].breakdown.load_bytes
                == serial[name].breakdown.load_bytes
            )
            assert parallel[name].weighted_cost == pytest.approx(
                serial[name].weighted_cost
            )
            assert parallel[name].loads == serial[name].loads
            assert parallel[name].evictions == serial[name].evictions
            assert (
                parallel[name].served_queries == serial[name].served_queries
            )

    def test_parallel_runs_in_worker_processes(self, federation):
        trace = make_trace(400)
        results = compare_policies(
            trace,
            federation,
            federation.total_database_bytes() // 2,
            "table",
            policies=self.POLICIES,
            record_series=False,
            parallel=True,
            max_workers=2,
        )
        pids = {result.worker_pid for result in results.values()}
        assert None not in pids  # every cell ran through the pool
        assert os.getpid() not in pids  # ...in a child process

    @pytest.mark.parametrize("driver", ["compare_policies", "simulate_fleet"])
    def test_pool_failure_falls_back_to_serial(
        self, federation, monkeypatch, driver
    ):
        """A platform that cannot start a process pool gets the serial
        results, telemetry included, instead of an error."""
        from repro.core.instrumentation import Instrumentation
        from repro.sim import runner
        from repro.sim.multi import ClientSite, simulate_fleet

        trace = make_trace(120)
        capacity = federation.total_database_bytes() // 2

        def run(**parallel_kwargs):
            sink = Instrumentation(max_events=0)
            if driver == "compare_policies":
                results = compare_policies(
                    trace, federation, capacity, "table",
                    policies=self.POLICIES, record_series=False,
                    instrumentation=sink, **parallel_kwargs,
                )
            else:
                clients = [
                    ClientSite(
                        name,
                        make_trace(60, name),
                        build_policy(
                            name, capacity, trace, federation, "table"
                        ),
                    )
                    for name in self.POLICIES
                ]
                results = simulate_fleet(
                    federation, clients, instrumentation=sink,
                    **parallel_kwargs,
                ).per_client
            return results, sink.snapshot()

        def no_pool(*args, **kwargs):
            raise OSError("process pools are unavailable")

        serial = run()
        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        assert run(parallel=True, max_workers=2) == serial

    def test_serial_results_carry_no_worker_pid(self, federation, trace):
        result = run_single(trace, federation, "no-cache", 100, "table")
        assert result.worker_pid is None

    def test_run_sweep_parallel_identical_to_serial(self, federation):
        trace = make_trace(200)
        kwargs = dict(
            granularity="table",
            fractions=(0.25, 0.5, 1.0),
            policies=("gds", "static", "no-cache"),
        )
        serial = run_sweep(trace, federation, **kwargs)
        parallel = run_sweep(
            trace, federation, parallel=True, max_workers=2, **kwargs
        )

        def rows(sweep):
            return [
                (
                    p.policy_name,
                    p.cache_fraction,
                    p.capacity_bytes,
                    p.total_bytes,
                )
                for p in sweep.points
            ]

        assert rows(parallel) == rows(serial)
        # Deterministic ordering: fractions outer, policies inner.
        assert [p.cache_fraction for p in parallel.points] == [
            0.25, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0
        ]

    def test_run_sweep_honors_policy_sees_weights(self, federation):
        federation.network.set_link("sdss", 3.0)
        trace = make_trace(60)
        kwargs = dict(
            granularity="table",
            fractions=(0.4,),
            policies=("online-by",),
        )
        byhr = run_sweep(trace, federation, **kwargs)
        byu = run_sweep(
            trace, federation, policy_sees_weights=False, **kwargs
        )
        byhr_par = run_sweep(
            trace, federation, parallel=True, max_workers=2, **kwargs
        )
        byu_par = run_sweep(
            trace,
            federation,
            policy_sees_weights=False,
            parallel=True,
            max_workers=2,
            **kwargs,
        )
        assert byhr_par.points[0].total_bytes == byhr.points[0].total_bytes
        assert byu_par.points[0].total_bytes == byu.points[0].total_bytes


class TestTenantTelemetryMerge:
    """Per-tenant counters must merge across parallel workers to the
    exact totals a serial run records (ISSUE: per-tenant WAN
    attribution survives process-pool fan-out)."""

    def _tenant_trace(self, n, tenants, name):
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
                    column_yields={},
                    servers=("sdss",),
                    tenant=tenants[i % len(tenants)],
                )
            )
        return PreparedTrace(name, queries)

    def _sweep_counters(self, federation, parallel):
        from repro.core.instrumentation import Instrumentation

        sink = Instrumentation(max_events=0)
        kwargs = dict(
            granularity="table",
            fractions=(0.3, 0.8),
            policies=("gds", "no-cache"),
            instrumentation=sink,
            parallel=parallel,
        )
        if parallel:
            kwargs["max_workers"] = 2
        # Disjoint ("alice" vs "carol") and overlapping ("bob", plus
        # untagged) label sets across the two merged sweeps.
        run_sweep(
            self._tenant_trace(40, ("alice", "bob", ""), "ab"),
            federation,
            **kwargs,
        )
        run_sweep(
            self._tenant_trace(40, ("bob", "carol"), "bc"),
            federation,
            **kwargs,
        )
        return sink.counters

    def test_parallel_merge_matches_serial(self, federation):
        serial = self._sweep_counters(federation, parallel=False)
        parallel = self._sweep_counters(federation, parallel=True)
        tenant_keys = {
            key
            for key in set(serial) | set(parallel)
            if key.startswith("tenant.")
        }
        assert tenant_keys, "runs recorded no tenant counters"
        assert {
            key.split(".")[1] for key in tenant_keys
        } >= {"alice", "bob", "carol", "untagged"}
        for key in sorted(tenant_keys):
            assert serial.get(key) == pytest.approx(
                parallel.get(key)
            ), key

    def test_tenant_partition_sums_to_aggregates(self, federation):
        counters = self._sweep_counters(federation, parallel=False)
        wan_total = (
            counters.get("wan.load_bytes", 0.0)
            + counters.get("wan.bypass_bytes", 0.0)
            + counters.get("wan.retry_bytes", 0.0)
        )
        tenant_wan = sum(
            value
            for key, value in counters.items()
            if key.startswith("tenant.") and key.endswith(".wan_bytes")
        )
        assert tenant_wan == pytest.approx(wan_total)
        tenant_decisions = sum(
            value
            for key, value in counters.items()
            if key.startswith("tenant.") and key.endswith(".decisions")
        )
        assert tenant_decisions == pytest.approx(counters["decisions"])


class TestSampledSeries:
    def test_sampled_series_is_strided_subsequence(self, federation):
        trace = make_trace(1100)
        full = run_single(
            trace, federation, "no-cache", 100, record_series=True
        )
        sampled = run_single(
            trace, federation, "no-cache", 100, record_series="sampled"
        )
        stride = 2
        assert stride > 1  # the trace is long enough to downsample
        assert sampled.series_stride == stride
        assert full.series_stride == 1
        expected = [
            full.cumulative_bytes[i]
            for i in range(1100)
            if (i + 1) % stride == 0 or i == 1100 - 1
        ]
        assert sampled.cumulative_bytes == expected
        assert len(sampled.cumulative_bytes) < len(full.cumulative_bytes)
        # Totals are exact regardless of what the series retains.
        assert sampled.cumulative_bytes[-1] == full.cumulative_bytes[-1]
        assert sampled.total_bytes == full.total_bytes

    def test_sampled_short_trace_keeps_every_point(self, federation, trace):
        sampled = run_single(
            trace, federation, "no-cache", 100, record_series="sampled"
        )
        full = run_single(
            trace, federation, "no-cache", 100, record_series=True
        )
        assert sampled.series_stride == 1
        assert sampled.cumulative_bytes == full.cumulative_bytes

    def test_record_series_false_records_nothing(self, federation, trace):
        result = run_single(
            trace, federation, "no-cache", 100, record_series=False
        )
        assert result.cumulative_bytes == []
        assert result.total_bytes == 20 * 120


class TestTelemetryAggregation:
    """Worker telemetry snapshots must merge deterministically."""

    POLICIES = ("rate-profile", "gds", "no-cache")

    def _counters(self, parallel, federation):
        from repro.core.instrumentation import Instrumentation

        trace = make_trace(60)
        capacity = federation.total_database_bytes() // 2
        sink = Instrumentation(max_events=0)
        compare_policies(
            trace,
            federation,
            capacity,
            "table",
            policies=self.POLICIES,
            record_series=False,
            parallel=parallel,
            max_workers=2 if parallel else None,
            instrumentation=sink,
        )
        return dict(sink.counters), sink.events_seen

    def test_parallel_telemetry_matches_serial(self, federation):
        serial_counters, serial_seen = self._counters(False, federation)
        parallel_counters, parallel_seen = self._counters(True, federation)
        assert serial_counters == parallel_counters
        assert serial_seen == parallel_seen
        assert serial_counters["decisions"] == 60 * len(self.POLICIES)

    def test_worker_results_carry_snapshots(self, federation):
        trace = make_trace(40)
        capacity = federation.total_database_bytes() // 2
        results = compare_policies(
            trace,
            federation,
            capacity,
            "table",
            policies=self.POLICIES,
            record_series=False,
            parallel=True,
            max_workers=2,
        )
        for result in results.values():
            assert result.telemetry is not None
            assert result.telemetry["counters"]["decisions"] == 40

    def test_serial_results_have_no_snapshot(self, federation):
        trace = make_trace(10)
        result = run_single(
            trace, federation, "no-cache",
            federation.total_database_bytes(),
        )
        assert result.telemetry is None
