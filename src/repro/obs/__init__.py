"""``repro.obs`` — end-to-end run telemetry.

The observability subsystem layered on the
:class:`~repro.core.instrumentation.Instrumentation` seam:

* :mod:`repro.obs.manifest` — :class:`RunManifest`, the attribution
  header (seed, policy, granularity, cache size, workload, version,
  caller timestamp) making every persisted run replayable;
* :mod:`repro.obs.trace_io` — :class:`TraceWriter` /
  :class:`TraceReader`, streaming decision events as JSONL under that
  header;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, windowed gauges and log2 histograms, Prometheus text
  exposition, and :class:`MetricsProbe`, which renders the sink's
  counters at scrape time and feeds the per-query histograms;
* :mod:`repro.obs.httpd` — the content types of the live HTTP surface
  (``repro-serve``'s ``/metrics``, ``/healthz``, ``/slo``, ``/stats``);
* :mod:`repro.obs.report` — the ``repro-report`` CLI: render one trace
  through the :mod:`repro.sim.reporting` dashboards, or diff two and
  gate CI on WAN-byte / hit-rate regressions.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    wall_clock_timestamp,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    LogHistogram,
    MetricsProbe,
    MetricsRegistry,
    WindowedGauge,
)
from repro.obs.trace_io import (
    RotatedTraceReader,
    TraceReader,
    TraceWriter,
    read_trace,
    rotated_segments,
)

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MANIFEST_SCHEMA",
    "MetricsProbe",
    "MetricsRegistry",
    "RunManifest",
    "RotatedTraceReader",
    "TraceReader",
    "TraceWriter",
    "WindowedGauge",
    "read_trace",
    "rotated_segments",
    "wall_clock_timestamp",
]
