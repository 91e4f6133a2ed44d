"""Captures every telemetry artefact of five fixed-seed runs.

``python -m tests.obs.spine_net`` prints the capture as JSON;
``parent_spine_net.json`` is that output at the last commit that had
four hand-written folds of a decided query (``SimulationResult.charge``,
``Instrumentation.record_decision``, ``MetricsProbe.on_decision`` and
``RunMetrics``/``summarize_events``) and two JSONL implementations,
re-recorded when stage timers and span-fed metrics were deleted (the
only differences were those series going, and the service page's
cache occupancy, which had read 0).  ``test_spine_regression_net.py``
asserts the capture is unchanged.

Per run: the ``/metrics`` page, the sink snapshot, the decision trace
(written live, appended onto an existing file, and rotated), the span
file (written live and appended) and the ``repro-report`` text.  Files
are recorded as line count, SHA-256 (the live files also their first
two lines), everything else verbatim.
"""

import asyncio
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core.instrumentation import Instrumentation
from repro.core.policies.rate_profile import RateProfilePolicy
from repro.core.proxy import BypassYieldProxy
from repro.faults import FaultSchedule, FaultWindow
from repro.federation import Federation
from repro.fleet import split_trace
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsProbe, MetricsRegistry
from repro.obs.report import main as report_main
from repro.obs.spans import SpanTracer, SpanWriter
from repro.obs.trace_io import TraceWriter
from repro.service import loadgen
from repro.service.config import ServiceConfig
from repro.service.server import MediatorService
from repro.sim.multi import ClientSite, simulate_fleet
from repro.sim.runner import build_policy, run_single
from repro.workload.stream import MaterializedStream
from repro.workload.trace import PreparedQuery, PreparedTrace

from tests.conftest import build_catalog

COLUMNS = [
    f"{table}.{column}"
    for table, columns in (
        ("PhotoObj", ("objID", "ra", "dec", "type", "modelMag_g", "modelMag_r")),
        ("SpecObj", ("specObjID", "objID", "z", "zConf", "specClass")),
    )
    for column in columns
]

PROXY_QUERIES = (
    "SELECT objID, ra, dec, modelMag_g FROM PhotoObj WHERE ra >= 0",
    "SELECT z FROM SpecObj WHERE z > 0.02",
)


def two_column_trace(n=240, name="fold", repeat=1):
    """Every query reads two columns, walking the whole schema;
    ``repeat`` consecutive queries read the same pair."""
    queries = []
    for i in range(n):
        start = (i // repeat) * 3
        picked = [COLUMNS[(start + k) % len(COLUMNS)] for k in range(2)]
        queries.append(
            PreparedQuery(
                index=i,
                sql=f"q{i}",
                template="t",
                yield_bytes=400,
                bypass_bytes=400,
                table_yields={c.split(".")[0]: 200.0 for c in picked},
                column_yields={c: 200.0 for c in picked},
                servers=("sdss",),
            )
        )
    return PreparedTrace(name, queries)


def table_trace(n=30, name="report-unit"):
    """Three in four queries read PhotoObj, the rest SpecObj."""
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


def flap_schedule(ticks):
    return FaultSchedule(
        seed=5,
        windows=(
            FaultWindow(
                kind="flap", server="sdss", start=0, end=ticks,
                period=6, duty=0.5,
            ),
        ),
    )


def fleet_clients(
    trace, federation, shards=4, policy="lru", capacity=10**9,
    granularity="column",
):
    return [
        ClientSite(
            f"s{i}",
            shard_trace,
            build_policy(
                policy, capacity, shard_trace, federation, granularity
            ),
        )
        for i, shard_trace in enumerate(
            split_trace(trace, shards, prefix="s")
        )
    ]


def file_record(*paths, head=0):
    """Line count and digest of the files' concatenated bytes, plus
    the first ``head`` lines verbatim."""
    data = b"".join(Path(path).read_bytes() for path in paths)
    lines = data.decode("utf-8").splitlines()
    record = {
        "files": len(paths),
        "lines": len(lines),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    if head:
        record["head"] = lines[:head]
    return record




def report(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = report_main([str(arg) for arg in argv])
    return {"exit": code, "text": out.getvalue().splitlines()}


class Recorder:
    """One run's sinks: counters + registry + trace (+ span) files."""

    def __init__(self, directory, name, policy, granularity, capacity,
                 spans=True):
        self.directory = Path(directory)
        self.name = name
        self.manifest = RunManifest(
            workload=name, policy=policy, granularity=granularity,
            capacity_bytes=capacity, package_version="net",
        )
        self.sink = Instrumentation()
        self.registry = None
        self.trace_path = self.directory / f"{name}.jsonl"
        self.writer = TraceWriter(self.trace_path, self.manifest)
        self.sink.add_probe(self.writer)
        self.tracer = None
        if spans:
            self.tracer = SpanTracer(
                seed=7, run_label=name, wall_clock=False, keep_spans=True
            )
            self.span_path = self.directory / f"{name}.spans.jsonl"
            self.span_writer = self.tracer.add_sink(
                SpanWriter(self.span_path, self.tracer)
            )

    def observe(self, registry=None, occupancy=None):
        """Fold the run into ``registry`` — by default a fresh one fed
        by its own :class:`MetricsProbe`."""
        if registry is None:
            registry = MetricsRegistry()
            self.sink.add_probe(MetricsProbe(registry, occupancy))
        self.registry = registry

    def finish(self):
        """Close the live files, rewrite them appended and rotated,
        and return everything recorded."""
        self.writer.close()
        events = list(self.sink.events)
        captured = {
            "metrics": self.registry.render_prometheus().splitlines(),
            "snapshot": json.dumps(self.sink.snapshot(), sort_keys=True),
            "trace": file_record(self.trace_path, head=2),
            "report": report(self.trace_path),
        }
        appended = self.directory / f"{self.name}.appended.jsonl"
        shutil.copy(self.trace_path, appended)
        with TraceWriter(appended, self.manifest, append=True) as writer:
            for event in events:
                writer.write(event)
        captured["trace_appended"] = file_record(appended)
        rotated = self.directory / f"{self.name}.rotated.jsonl"
        with TraceWriter(rotated, self.manifest, rotate_events=7) as writer:
            for event in events:
                writer.write(event)
        captured["trace_rotated"] = file_record(*writer.segments)
        if self.tracer is not None:
            self.span_writer.close()
            captured["spans"] = file_record(self.span_path, head=2)
            appended = self.directory / f"{self.name}.appended.spans.jsonl"
            shutil.copy(self.span_path, appended)
            with SpanWriter(appended, self.tracer, append=True) as writer:
                for span in self.tracer.spans:
                    writer.write(span)
            captured["spans_appended"] = file_record(appended)
        return captured


def table_run(directory, policy="rate-profile"):
    federation = Federation.single_site(build_catalog(), "sdss")
    trace = table_trace()
    capacity = federation.total_database_bytes() // 3
    recorder = Recorder(
        directory, f"table-{policy}", policy, "table", capacity
    )
    recorder.observe()
    run_single(
        trace, federation, policy, capacity, "table",
        record_series=False, instrumentation=recorder.sink,
        tracer=recorder.tracer,
    )
    return recorder


def faulted_run(directory):
    federation = Federation.single_site(build_catalog(), "sdss")
    trace = two_column_trace()
    recorder = Recorder(directory, "faulted", "rate-profile", "column", 300)
    recorder.observe()
    run_single(
        trace, federation, "rate-profile", 300, "column",
        record_series=False, instrumentation=recorder.sink,
        faults=flap_schedule(len(trace)), tracer=recorder.tracer,
    )
    return recorder


def fleet_run(directory):
    federation = Federation.single_site(build_catalog(), "sdss")
    trace = two_column_trace(n=120, name="fleet", repeat=4)
    recorder = Recorder(
        directory, "fleet", "lru", "column", 10**9, spans=False
    )
    recorder.observe()
    simulate_fleet(
        federation, fleet_clients(trace, federation), granularity="column",
        cooperative=True, probe_all_siblings=True,
        instrumentation=recorder.sink,
    )
    return recorder


def service_run(directory):
    """Three tenants submitted up front against a tight admission
    ladder, so some queries are shed and some refused."""
    federation = Federation.single_site(build_catalog(), "sdss")
    trace = two_column_trace(n=150, name="service")
    recorder = Recorder(directory, "service", "rate-profile", "column", 300)

    async def run():
        service = MediatorService(
            federation,
            RateProfilePolicy(capacity_bytes=300),
            config=ServiceConfig(
                queue_depth=16, reject_depth=46, max_inflight=2
            ),
            granularity="column",
            instrumentation=recorder.sink,
            tracer=recorder.tracer,
        )
        recorder.observe(service.registry)
        try:
            await loadgen.drive_service(
                service,
                loadgen.fan_out(MaterializedStream(trace), 3, seed=3),
            )
        finally:
            await service.close()

    asyncio.run(run())
    return recorder


def proxy_run(directory):
    federation = Federation.single_site(build_catalog(), "sdss")
    capacity = federation.total_database_bytes()
    recorder = Recorder(
        directory, "proxy", "rate-profile", "table", capacity, spans=False
    )
    policy = RateProfilePolicy(capacity_bytes=capacity)
    proxy = BypassYieldProxy(
        federation, policy, granularity="table",
        instrumentation=recorder.sink,
    )
    recorder.observe(occupancy=lambda: policy.store.used_bytes)
    for i in range(12):
        proxy.query(PROXY_QUERIES[i % 3 == 2])
    return recorder


def capture():
    """``{run: {artefact: value}}`` for the five runs plus the diffs."""
    with tempfile.TemporaryDirectory() as directory:
        table = table_run(directory)
        captured = {
            "table": table.finish(),
            "faulted": faulted_run(directory).finish(),
            "fleet": fleet_run(directory).finish(),
            "service": service_run(directory).finish(),
            "proxy": proxy_run(directory).finish(),
        }
        no_cache = table_run(directory, "no-cache")
        no_cache.finish()
        captured["diff"] = {
            "same": report("--diff", table.trace_path, table.trace_path),
            "cross": report(
                "--diff", table.trace_path, no_cache.trace_path
            ),
        }
    return captured


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
