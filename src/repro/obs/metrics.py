"""Metrics registry: counters, gauges, windowed gauges, log histograms.

The registry is the live-serving complement of the decision trace: where
:mod:`repro.obs.trace_io` persists every event for offline accounting,
the registry folds events into fixed-size aggregates that a scraper can
poll — Prometheus text exposition via :meth:`MetricsRegistry.render_prometheus`,
optionally over HTTP via :mod:`repro.obs.httpd`.

Everything here is deterministic given the observation sequence: windows
are sized in *observations* (the paper's notion of time is the query
index), histograms use fixed log2 bucketing, and exposition output is
sorted — so two identical runs render identical metrics pages.
"""

from __future__ import annotations

import re
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.core.instrumentation import DecisionEvent, Probe
from repro.errors import ConfigurationError

#: Default observation window for :class:`WindowedGauge`.
DEFAULT_WINDOW = 256

Number = Union[int, float]
M = TypeVar("M", bound="Metric")


def format_sample_value(value: float) -> str:
    """Render a sample at full precision for text exposition.

    ``%g`` keeps only six significant digits, which rounds any counter
    past ~1e6 on the scrape page — enough to break the exact
    tenant-sum == aggregate conservation contract that
    ``repro.service.loadgen --check-conservation`` verifies against
    ``/metrics``.  Exact integers render bare; everything else uses
    ``repr`` (shortest string that round-trips the float).
    """
    if value != value or value in (float("inf"), float("-inf")):
        return f"{value:g}"
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def sanitize_metric_name(name: str) -> str:
    """Map dotted/stage names onto the Prometheus name grammar."""
    cleaned = []
    for ch in name:
        if ch.isalnum() or ch == "_":
            cleaned.append(ch)
        else:
            cleaned.append("_")
    text = "".join(cleaned)
    if not text or text[0].isdigit():
        text = "_" + text
    return text


class Metric:
    """Base: a named, typed, documented time series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text

    def expose(self) -> List[Tuple[str, float]]:
        """(exposed name, value) samples for text exposition."""
        raise NotImplementedError

    def snapshot_value(self) -> object:
        """JSON-safe state for :meth:`MetricsRegistry.snapshot`."""
        raise NotImplementedError

    def merge_value(self, value: object) -> None:
        """Fold a :meth:`snapshot_value` payload into this metric."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self.value = 0.0

    def inc(self, amount: Number = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += float(amount)

    def expose(self) -> List[Tuple[str, float]]:
        return [(self.name, self.value)]

    def snapshot_value(self) -> object:
        return self.value

    def merge_value(self, value: object) -> None:
        self.value += float(value)  # type: ignore[arg-type]


class Gauge(Metric):
    """A value that goes up and down; merge keeps the maximum."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self.value = 0.0

    def set(self, value: Number) -> None:
        self.value = float(value)

    def expose(self) -> List[Tuple[str, float]]:
        return [(self.name, self.value)]

    def snapshot_value(self) -> object:
        return self.value

    def merge_value(self, value: object) -> None:
        # Order-independent (deterministic across merge orders): peak.
        self.value = max(self.value, float(value))  # type: ignore[arg-type]


class WindowedGauge(Metric):
    """A gauge retaining its last ``window`` observations.

    Exposes the latest value plus min/mean/max over the window — a
    fixed-memory timeline (e.g. cache occupancy over the last N
    decisions).  Windows count observations, not seconds, so replays
    stay deterministic.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        window: int = DEFAULT_WINDOW,
    ) -> None:
        super().__init__(name, help_text)
        if window < 1:
            raise ConfigurationError(
                f"windowed gauge {name} needs window >= 1, got {window}"
            )
        self.window = window
        self.values: Deque[float] = deque(maxlen=window)

    def set(self, value: Number) -> None:
        self.values.append(float(value))

    @property
    def last(self) -> float:
        return self.values[-1] if self.values else 0.0

    def expose(self) -> List[Tuple[str, float]]:
        if not self.values:
            return [(self.name, 0.0)]
        window = list(self.values)
        return [
            (self.name, window[-1]),
            (f"{self.name}_window_min", min(window)),
            (f"{self.name}_window_mean", sum(window) / len(window)),
            (f"{self.name}_window_max", max(window)),
        ]

    def snapshot_value(self) -> object:
        return list(self.values)

    def merge_value(self, value: object) -> None:
        if isinstance(value, Iterable):
            for item in value:
                self.values.append(float(item))  # type: ignore[arg-type]


class LogHistogram(Metric):
    """Histogram over power-of-two buckets.

    Byte and cost distributions in this system span many orders of
    magnitude (a point query yields hundreds of bytes; a table load
    moves gigabytes), so linear buckets are useless: log2 bucketing
    gives constant relative resolution with ~40 buckets covering
    1 byte .. 1 TB.  Values ``<= 1`` land in the first bucket.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        #: exponent -> count; bucket upper bound is ``2 ** exponent``.
        self.buckets: Dict[int, int] = {}
        self.total = 0.0
        self.count = 0

    @staticmethod
    def bucket_for(value: float) -> int:
        exponent = 0
        bound = 1.0
        while bound < value:
            bound *= 2.0
            exponent += 1
        return exponent

    def observe(self, value: Number) -> None:
        value = float(value)
        exponent = self.bucket_for(max(value, 0.0))
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1
        self.total += value
        self.count += 1

    def expose(self) -> List[Tuple[str, float]]:
        samples: List[Tuple[str, float]] = []
        cumulative = 0
        for exponent in sorted(self.buckets):
            cumulative += self.buckets[exponent]
            samples.append(
                (
                    f'{self.name}_bucket{{le="{float(2 ** exponent):g}"}}',
                    float(cumulative),
                )
            )
        samples.append(
            (f'{self.name}_bucket{{le="+Inf"}}', float(self.count))
        )
        samples.append((f"{self.name}_sum", self.total))
        samples.append((f"{self.name}_count", float(self.count)))
        return samples

    def rows(self) -> List[Tuple[str, int]]:
        """(bucket label, count) pairs for plain-text reporting."""
        return [
            (f"<= {float(2 ** exponent):g}", self.buckets[exponent])
            for exponent in sorted(self.buckets)
        ]

    def snapshot_value(self) -> object:
        return {
            "buckets": {
                str(exponent): count
                for exponent, count in sorted(self.buckets.items())
            },
            "sum": self.total,
            "count": self.count,
        }

    def merge_value(self, value: object) -> None:
        if not isinstance(value, Mapping):
            return
        buckets = value.get("buckets", {})
        if isinstance(buckets, Mapping):
            for exponent, count in buckets.items():
                key = int(exponent)  # type: ignore[call-overload]
                self.buckets[key] = (
                    self.buckets.get(key, 0) + int(count)  # type: ignore[call-overload]
                )
        self.total += float(value.get("sum", 0.0))  # type: ignore[arg-type]
        self.count += int(value.get("count", 0))  # type: ignore[call-overload]


class MetricsRegistry:
    """Create-or-get metrics by name; render, snapshot, and merge them.

    All accessors are get-or-create and type-checked: asking for an
    existing name with a different metric kind raises, so two layers
    wiring the same registry cannot silently split a series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(
        self, kind: Type[M], name: str, *args: object
    ) -> M:
        """The metric registered as ``name``, built as
        ``kind(name, *args)`` on first use."""
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = kind(name, *args)
        elif type(existing) is not kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, not {kind.__name__}"
            )
        return existing  # type: ignore[return-value]

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def windowed_gauge(
        self,
        name: str,
        help_text: str = "",
        window: int = DEFAULT_WINDOW,
    ) -> WindowedGauge:
        return self._get_or_create(WindowedGauge, name, help_text, window)

    def histogram(self, name: str, help_text: str = "") -> LogHistogram:
        return self._get_or_create(LogHistogram, name, help_text)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 (sorted, stable).

        Registry keys may carry a label suffix (``name{tenant="a"}``) —
        that is how per-tenant series share one metric family.  HELP and
        TYPE are emitted once per *base* name, so a labeled family
        renders as one header followed by its labeled samples.
        """
        lines: List[str] = []
        seen_headers = set()
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            base_name, _, _ = name.partition("{")
            exposed = sanitize_metric_name(base_name)
            if exposed not in seen_headers:
                seen_headers.add(exposed)
                if metric.help_text:
                    lines.append(f"# HELP {exposed} {metric.help_text}")
                lines.append(f"# TYPE {exposed} {metric.kind}")
            for sample_name, value in metric.expose():
                base, brace, labels = sample_name.partition("{")
                rendered = sanitize_metric_name(base) + brace + labels
                lines.append(
                    f"{rendered} {format_sample_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state of every metric, for merge/persistence."""
        return {
            name: {
                "kind": metric.kind,
                "type": type(metric).__name__,
                "help": metric.help_text,
                "value": metric.snapshot_value(),
            }
            for name, metric in sorted(self._metrics.items())
        }

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold a :meth:`snapshot` payload in (counters/histograms add,
        plain gauges keep their peak, windows extend)."""
        factories: Dict[str, Callable[[str, str], Metric]] = {
            "Counter": Counter,
            "Gauge": Gauge,
            "WindowedGauge": WindowedGauge,
            "LogHistogram": LogHistogram,
        }
        for name in sorted(snapshot):
            entry = snapshot[name]
            if not isinstance(entry, Mapping):
                continue
            type_name = str(entry.get("type", ""))
            factory = factories.get(type_name)
            if factory is None:
                continue
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(name, str(entry.get("help", "")))
                self._metrics[name] = metric
            metric.merge_value(entry.get("value"))


#: The rename table: which sink counter feeds which Prometheus series.
#: ``Instrumentation.record_decision`` is the one fold of a decision
#: into named counters; the probe mirrors those counters onto the
#: scrape page under the (series, help text) below, so the page's
#: tenant and shard partitions sum to their aggregates because the
#: sink's do.  ``*`` is the tenant, shard or outcome segment.  Sink
#: counters not listed (``fleet.peer_*``, ``fleet.clients``,
#: ``mediator.*``) stay off the page.
COUNTER_FAMILIES: Dict[str, Tuple[str, str]] = {
    "decisions": ("decisions_total", "Queries decided"),
    "decisions.served": (
        "decisions_served_total", "Queries served from cache",
    ),
    "decisions.bypassed": ("decisions_bypassed_total", "Queries bypassed"),
    "decisions.loads": ("loads_total", "Objects loaded into the cache"),
    "decisions.evictions": ("evictions_total", "Objects evicted (churn)"),
    "wan.load_bytes": ("wan_load_bytes_total", "WAN bytes spent on loads"),
    "wan.bypass_bytes": (
        "wan_bypass_bytes_total", "WAN bytes spent bypassing",
    ),
    "wan.weighted_cost": (
        "wan_weighted_cost_total", "Link-weighted WAN cost",
    ),
    "decisions.retries": (
        "retries_total",
        "Transfer attempts beyond the first (fault retries)",
    ),
    "wan.retry_bytes": (
        "wan_retry_bytes_total",
        "WAN bytes wasted by failed attempts and discarded partials",
    ),
    "decisions.outcome.*": ("outcome_*_total", "Queries resolved as *"),
    "tenant.*.decisions": (
        'tenant_decisions_total{tenant="*"}',
        "Queries decided, partitioned by tenant",
    ),
    "tenant.*.served": (
        'tenant_served_total{tenant="*"}',
        "Queries served from cache, partitioned by tenant",
    ),
    "tenant.*.wan_bytes": (
        'tenant_wan_bytes_total{tenant="*"}',
        "WAN bytes (loads + bypass + retry waste) per tenant",
    ),
    "tenant.*.weighted_cost": (
        'tenant_weighted_cost_total{tenant="*"}',
        "Link-weighted WAN cost per tenant",
    ),
    "fleet.shard.*.decisions": (
        'shard_decisions_total{shard="*"}',
        "Queries decided, partitioned by fleet shard",
    ),
    "fleet.shard.*.served": (
        'shard_served_total{shard="*"}',
        "Queries served from cache, partitioned by fleet shard",
    ),
    "fleet.shard.*.wan_bytes": (
        'shard_wan_bytes_total{shard="*"}',
        "WAN bytes (loads + bypass + retry waste) per fleet shard",
    ),
    "fleet.shard.*.peer_bytes": (
        'shard_peer_bytes_total{shard="*"}',
        "Bytes received from sibling shards over peer links",
    ),
}

#: Resilience namespaces forwarded under their own (sanitized) names.
_FAULT_NAMESPACES = ("transport.", "breaker.", "faults.")


class MetricsProbe(Probe):
    """Feed a :class:`MetricsRegistry` from the instrumentation seam.

    Attach to an :class:`~repro.core.instrumentation.Instrumentation`
    and the paper's accounting quantities appear on the scrape page:
    every sink counter :data:`COUNTER_FAMILIES` names is mirrored as it
    is incremented (hit/bypass counts, WAN byte/cost totals, eviction
    churn, the tenant and shard partitions), and every decision feeds
    what is not a counter — the per-query WAN and yield distributions
    (log2 histograms), the hit-rate gauge and, when an ``occupancy``
    callable is supplied (the proxy passes its cache store), a
    windowed cache-occupancy timeline.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        occupancy: Optional[Callable[[], Number]] = None,
        prefix: str = "repro",
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.registry = registry
        self.occupancy = occupancy
        self._prefix = p = prefix
        #: sink counter name -> its registry counter (None: not exported).
        self._mirrors: Dict[str, Optional[Counter]] = {}
        # The unlabelled families exist from the start, so a scrape
        # before the first decision shows zeros rather than gaps.
        for name in COUNTER_FAMILIES:
            if "*" not in name:
                self._mirrors[name] = self._mirror_of(name)
        self._decisions = registry.counter(f"{p}_decisions_total")
        self._served = registry.counter(f"{p}_decisions_served_total")
        self._hit_rate = registry.gauge(
            f"{p}_hit_rate", "Served fraction of decided queries"
        )
        self._wan_histogram = registry.histogram(
            f"{p}_query_wan_bytes", "Per-query WAN bytes (log2 buckets)"
        )
        self._yield_histogram = registry.histogram(
            f"{p}_query_yield_bytes",
            "Per-query result yield (log2 buckets)",
        )
        self._occupancy_gauge = registry.windowed_gauge(
            f"{p}_cache_occupancy_bytes",
            "Cache bytes in use (windowed timeline)",
            window=window,
        )

    def _mirror_of(self, name: str) -> Optional[Counter]:
        """The registry counter that mirrors sink counter ``name``."""
        if name.startswith(_FAULT_NAMESPACES):
            return self.registry.counter(
                f"{self._prefix}_{sanitize_metric_name(name)}_total",
                f"Fault-layer counter {name}",
            )
        for pattern, (series, help_text) in COUNTER_FAMILIES.items():
            match = re.fullmatch(
                re.escape(pattern).replace(r"\*", "(.+)"), name
            )
            if match is not None:
                segment = "".join(match.groups())
                return self.registry.counter(
                    f"{self._prefix}_{series.replace('*', segment)}",
                    help_text.replace("*", segment),
                )
        return None

    def on_counter(self, name: str, value: float) -> None:
        """Mirror the sink counter under its Prometheus family."""
        if value < 0 and name.startswith(_FAULT_NAMESPACES):
            return
        try:
            counter = self._mirrors[name]
        except KeyError:
            counter = self._mirrors[name] = self._mirror_of(name)
        if counter is not None:
            counter.inc(value)

    def on_decision(self, event: DecisionEvent) -> None:
        self._wan_histogram.observe(event.wan_bytes)
        if event.yield_bytes:
            self._yield_histogram.observe(event.yield_bytes)
        decided = self._decisions.value
        if decided:
            self._hit_rate.set(self._served.value / decided)
        if self.occupancy is not None:
            self._occupancy_gauge.set(float(self.occupancy()))

    def on_stage(self, name: str, seconds: float) -> None:
        stage = sanitize_metric_name(name)
        self.registry.counter(
            f"{self._prefix}_stage_{stage}_seconds_total",
            f"Cumulative seconds in stage {name}",
        ).inc(seconds)
        self.registry.counter(
            f"{self._prefix}_stage_{stage}_calls_total",
            f"Invocations of stage {name}",
        ).inc()
