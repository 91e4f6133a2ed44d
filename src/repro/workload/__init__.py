"""SDSS-style synthetic workloads: data, queries, traces, analyzers.

* :mod:`repro.workload.sdss_schema` — astronomy schema + data generator.
* :mod:`repro.workload.templates` — parameterized query templates grouped
  into user themes.
* :mod:`repro.workload.generator` — trace generation with the paper's
  workload properties (schema locality, episodes, no containment).
* :mod:`repro.workload.trace` — raw and prepared traces, JSONL storage.
* :mod:`repro.workload.prepare` — execute-and-measure (yield collection).
* :mod:`repro.workload.containment` / :mod:`repro.workload.locality` —
  the analyses behind Figures 4-6.
"""

from repro.workload.containment import (
    ContainmentReport,
    analyze_containment,
)
from repro.workload.generator import (
    TraceConfig,
    dr1_trace,
    edr_trace,
    generate_trace,
)
from repro.workload.locality import (
    LocalityReport,
    analyze_locality,
    referenced_objects,
)
from repro.workload.chunks import (
    ChunkedTrace,
    ChunkManifest,
    write_chunked,
)
from repro.workload.generator import iter_trace_records
from repro.workload.prepare import (
    estimate_trace,
    iter_prepared,
    prepare_trace,
)
from repro.workload.stream import (
    GeneratedStream,
    MaterializedStream,
    QueryStream,
)
from repro.workload.stats import (
    TraceStats,
    YieldStats,
    format_stats,
    trace_stats,
    yield_stats,
)
from repro.workload.sdss_schema import (
    MEDIUM,
    PROFILES,
    SMALL,
    TINY,
    ScaleProfile,
    build_federation,
    build_first_catalog,
    build_sdss_catalog,
)
from repro.workload.templates import TEMPLATES, THEMES, QueryTemplate
from repro.workload.trace import (
    PreparedQuery,
    PreparedTrace,
    Trace,
    TraceRecord,
)

__all__ = [
    "ChunkManifest",
    "ChunkedTrace",
    "ContainmentReport",
    "GeneratedStream",
    "LocalityReport",
    "MaterializedStream",
    "QueryStream",
    "MEDIUM",
    "PROFILES",
    "PreparedQuery",
    "PreparedTrace",
    "QueryTemplate",
    "SMALL",
    "ScaleProfile",
    "TEMPLATES",
    "THEMES",
    "TINY",
    "Trace",
    "TraceConfig",
    "TraceRecord",
    "TraceStats",
    "YieldStats",
    "analyze_containment",
    "analyze_locality",
    "build_federation",
    "build_first_catalog",
    "build_sdss_catalog",
    "dr1_trace",
    "edr_trace",
    "estimate_trace",
    "format_stats",
    "generate_trace",
    "iter_prepared",
    "iter_trace_records",
    "prepare_trace",
    "trace_stats",
    "referenced_objects",
    "write_chunked",
    "yield_stats",
]
