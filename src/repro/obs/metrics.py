"""Metrics registry: counters, gauges, windowed gauges, log histograms.

The registry is the live-serving complement of the decision trace: where
:mod:`repro.obs.trace_io` persists every event for offline accounting,
the registry folds events into fixed-size aggregates that a scraper can
poll — Prometheus text exposition via :meth:`MetricsRegistry.render_prometheus`,
served live by ``repro-serve``'s ``/metrics``.  Counters are not
copied in: the page reads the sink's one counter store when it renders.

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


class Gauge(Metric):
    """A value that goes up and down."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self.value = 0.0

    def set(self, value: Number) -> None:
        self.value = float(value)

    def expose(self) -> List[Tuple[str, float]]:
        return [(self.name, self.value)]


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


class MetricsRegistry:
    """Create-or-get metrics by name, and render them with whatever the
    registered collectors read at scrape time.

    All accessors are get-or-create and type-checked: asking for an
    existing name with a different metric kind raises, so two layers
    wiring the same registry cannot silently split a series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], Iterable[Metric]]] = []

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

    def add_collector(
        self, collect: Callable[[], Iterable[Metric]]
    ) -> None:
        """Render ``collect()``'s metrics on every page, read when the
        page renders."""
        self._collectors.append(collect)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 (sorted, stable).

        Registry keys may carry a label suffix (``name{tenant="a"}``) —
        that is how per-tenant series share one metric family.  HELP and
        TYPE are emitted once per *base* name, so a labeled family
        renders as one header followed by its labeled samples.  The
        collectors run synchronously here, so one page is one
        consistent read of what they collect.
        """
        metrics = dict(self._metrics)
        for collect in self._collectors:
            metrics.update((metric.name, metric) for metric in collect())
        lines: List[str] = []
        seen_headers = set()
        for name in sorted(metrics):
            metric = metrics[name]
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


#: The rename table: which sink counter feeds which Prometheus series.
#: ``Instrumentation.record_decision`` is the one fold of a decision
#: into named counters; the probe renders those counters on the scrape
#: page under the (series, help text) below, so the page's tenant and
#: shard partitions sum to their aggregates because the sink's do.  ``*`` is the tenant, shard or outcome segment.  Sink
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

#: Sink counters the page shows even before they are first counted.
_UNLABELLED_FAMILIES = tuple(
    name for name in COUNTER_FAMILIES if "*" not in name
)

#: Resilience namespaces rendered under their own (sanitized) names.
_FAULT_NAMESPACES = ("transport.", "breaker.", "faults.")

#: :data:`COUNTER_FAMILIES` as (matcher, series, help text).
_FAMILY_MATCHERS = [
    (
        re.compile(re.escape(pattern).replace(r"\*", "(.+)")),
        series,
        help_text,
    )
    for pattern, (series, help_text) in COUNTER_FAMILIES.items()
]


def _counter_family(name: str) -> Optional[Tuple[str, str]]:
    """(series, help text) that sink counter ``name`` renders as, with
    no prefix; None for counters that stay off the page."""
    if name.startswith(_FAULT_NAMESPACES):
        return (
            f"{sanitize_metric_name(name)}_total",
            f"Fault-layer counter {name}",
        )
    for matcher, series, help_text in _FAMILY_MATCHERS:
        match = matcher.fullmatch(name)
        if match is not None:
            segment = "".join(match.groups())
            return (
                series.replace("*", segment),
                help_text.replace("*", segment),
            )
    return None


class MetricsProbe(Probe):
    """Put a sink's accounting on a :class:`MetricsRegistry` page.

    Attach to an :class:`~repro.core.instrumentation.Instrumentation`
    with ``add_probe`` and the paper's accounting quantities appear on
    the scrape page.  The counters are read from the sink's one store
    when the page renders: every counter :data:`COUNTER_FAMILIES` or
    the fault namespaces name (hit/bypass counts, WAN byte/cost
    totals, eviction churn, the tenant and shard partitions) and the
    hit rate computed from them.  Each decision feeds only what the
    counters cannot hold — the per-query WAN and yield distributions
    (log2 histograms) and, when an ``occupancy`` callable is supplied
    (the service passes its cache store), a windowed cache-occupancy
    timeline.
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
        registry.add_collector(self.collect)

    def collect(self) -> List[Metric]:
        """The attached sink's counters as page series, read now."""
        p = self._prefix
        # The unlabelled families show zeros before the first decision
        # rather than gaps.
        values = dict.fromkeys(_UNLABELLED_FAMILIES, 0.0)
        values.update(self.counters)
        metrics: List[Metric] = []
        for name, value in values.items():
            family = _counter_family(name)
            if family is not None:
                counter = Counter(f"{p}_{family[0]}", family[1])
                counter.value = float(value)
                metrics.append(counter)
        hit_rate = Gauge(
            f"{p}_hit_rate", "Served fraction of decided queries"
        )
        if values["decisions"]:
            hit_rate.set(values["decisions.served"] / values["decisions"])
        metrics.append(hit_rate)
        return metrics

    def on_decision(self, event: DecisionEvent) -> None:
        self._wan_histogram.observe(event.wan_bytes)
        if event.yield_bytes:
            self._yield_histogram.observe(event.yield_bytes)
        if self.occupancy is not None:
            self._occupancy_gauge.set(float(self.occupancy()))
