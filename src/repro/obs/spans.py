"""Hierarchical span tracing for the decision path.

Where :mod:`repro.obs.trace_io` records *what* was decided (one
:class:`~repro.core.instrumentation.DecisionEvent` per query) and
:mod:`repro.obs.metrics` folds decisions into scrapeable aggregates,
this module records *how* each decision happened: a tree of spans per
query — decide, account, per-load transport attempts, bypass shipping,
plan-cache lookups, SQL execution — each carrying its stage name, its
parent, the bytes it moved, and the tenant that caused it.

Determinism contract
--------------------

Span *files* are byte-identical across same-seed runs.  Three rules
make that true:

* **IDs are keyed hashes**, not random: :func:`span_id_for` derives a
  span id from ``(seed, query index, stage, start tick)`` through
  SHA-256, the same construction as
  :func:`repro.faults.engine.uniform_draw` — no ``uuid``, no module
  RNG, no process state.
* **File time is logical.**  Every span start/finish advances a logical
  tick counter, so recorded ``start``/``end`` ticks depend only on the
  sequence of traced operations, never on the wall clock.  One tick is
  rendered as one microsecond in the Chrome/Perfetto export.
* **Wall-clock durations never reach the file.**  The tracer *also*
  measures real elapsed seconds per span when asked to
  (``wall_clock=True``), but that measurement rides on the in-memory
  span only; :meth:`Span.to_json` deliberately omits it.

The disabled path costs nothing: ``tracer=None`` is the one off
switch, drivers pay one ``is None`` test per traced site, and the
golden-equivalence suite pins decisions and WAN totals byte-identical
with tracing on or off.
"""

# repro-lint: allow-file[RPR002] wall-clock reads here are observability
# measurements that never feed replay state or the span file.

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.jsonl import JsonlReader, JsonlWriter

#: Version tag carried by span-file headers.
SPAN_SCHEMA = 1

#: Stage names used by the built-in instrumentation points.  Callers may
#: emit any stage name; these are the ones the decision path produces.
STAGE_QUERY = "query"
STAGE_DECIDE = "decide"
STAGE_ACCOUNT = "account"
STAGE_LOAD = "load"
STAGE_BYPASS = "bypass"
STAGE_ATTEMPT = "transport.attempt"
STAGE_PLAN = "plan"
STAGE_EXECUTE = "execute"


def span_id_for(seed: int, *parts: object) -> str:
    """A deterministic 16-hex-digit span id keyed by its arguments.

    Hash-based rather than generator-based (the ``uniform_draw``
    construction): the id depends only on its key, never on process
    state or allocation order, so same-seed runs mint identical ids.
    """
    key = ":".join(str(part) for part in (seed,) + parts)
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


class Span:
    """One span: a named interval in the decision path.

    :meth:`SpanTracer.start` returns a span open, and the traced code
    attaches attributes with :meth:`set` as it learns them;
    :meth:`SpanTracer.finish` completes the same object in place.  While
    open, ``attrs`` is a dict, ``end`` is 0 and ``wall_seconds`` holds the
    ``perf_counter`` reading at start (None when the tracer does not
    measure wall time); the fields below describe a finished span.

    Attributes:
        trace_id: Run-level correlation id (same for every span of one
            traced run).
        span_id: This span's deterministic id.
        parent_id: Enclosing span's id ("" for roots).
        name: Stage name (``"query"``, ``"decide"``, ``"load"``, ...).
        index: Query index the span belongs to (-1 when outside any
            query, e.g. preparation-time planning).
        tenant: Tenant that caused the work ("" when untagged).
        start: Logical start tick.
        end: Logical end tick.
        bytes_moved: WAN bytes this span moved (0 for pure-CPU stages).
        attrs: Sorted (key, value) attribute pairs.
        wall_seconds: Measured wall-clock duration — in-memory only,
            never serialized (same-seed span files must be
            byte-identical).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "index",
        "tenant",
        "start",
        "end",
        "bytes_moved",
        "attrs",
        "wall_seconds",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str,
        name: str,
        index: int,
        tenant: str,
        start: int,
        end: int,
        bytes_moved: int = 0,
        attrs: Tuple[Tuple[str, object], ...] = (),
        wall_seconds: Optional[float] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.index = index
        self.tenant = tenant
        self.start = start
        self.end = end
        self.bytes_moved = bytes_moved
        self.attrs = attrs
        self.wall_seconds = wall_seconds

    def set(self, key: str, value: object) -> None:
        """Attach an attribute to an open span."""
        self.attrs[key] = value

    @property
    def duration(self) -> int:
        """Logical duration in ticks."""
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        """JSON-safe dict that :meth:`from_json` restores exactly.

        ``wall_seconds`` is deliberately omitted: the file format is
        part of the byte-identical determinism contract.
        """
        payload: Dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "index": self.index,
            "tenant": self.tenant,
            "start": self.start,
            "end": self.end,
            "bytes": self.bytes_moved,
        }
        if self.attrs:
            payload["attrs"] = {key: value for key, value in self.attrs}
        return payload

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "Span":
        attrs = data.get("attrs", {})
        if not isinstance(attrs, Mapping):
            raise ValueError("span attrs must be an object")
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=str(data.get("parent_id", "")),
            name=str(data["name"]),
            index=int(data.get("index", -1)),  # type: ignore[call-overload]
            tenant=str(data.get("tenant", "")),
            start=int(data["start"]),  # type: ignore[call-overload]
            end=int(data["end"]),  # type: ignore[call-overload]
            bytes_moved=int(data.get("bytes", 0)),  # type: ignore[call-overload]
            attrs=tuple(sorted(attrs.items())),
        )

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, q{self.index}, "
            f"[{self.start},{self.end}], bytes={self.bytes_moved})"
        )


class SpanSink:
    """Receives finished spans; subclass and override :meth:`on_span`."""

    def on_span(self, span: Span) -> None:
        """Called once per finished span, in finish order."""


class SpanTracer:
    """Deterministic hierarchical tracer for one run.

    Args:
        seed: Run seed keying the deterministic span ids.
        run_label: Free-form run identity folded into the trace id
            (workload/policy names, typically).
        wall_clock: Measure real elapsed seconds per span (on
            ``Span.wall_seconds``, for in-memory sinks).  File output
            is unaffected either way.
        keep_spans: Retain finished spans on ``tracer.spans`` (handy in
            tests and for one-shot exports; long replays should stream
            through a :class:`SpanWriter` sink instead).

    The tracer is a single-threaded replay companion: one span stack,
    no locks.  Parenting is implicit — a started span becomes the
    parent of spans started before it finishes.  All mutation of tracer
    state goes through the sanctioned mutators ``start``, ``finish``,
    ``record``, ``add_sink``, and ``reset`` (enforced project-wide by
    repro-lint RPR004).
    """

    def __init__(
        self,
        seed: int = 0,
        run_label: str = "run",
        wall_clock: bool = True,
        keep_spans: bool = False,
    ) -> None:
        self.seed = seed
        self.run_label = run_label
        self.trace_id = span_id_for(seed, "trace", run_label)
        self.wall_clock = wall_clock
        self.keep_spans = keep_spans
        self.spans: List[Span] = []
        self.spans_seen = 0
        self._sinks: List[SpanSink] = []
        self._clock = 0
        self._stack: List[Span] = []

    # -- sinks -----------------------------------------------------------

    def add_sink(self, sink: SpanSink) -> SpanSink:
        """Attach a sink; returns it for chaining."""
        self._sinks.append(sink)
        return sink

    # -- span lifecycle --------------------------------------------------

    def start(
        self,
        name: str,
        index: int = -1,
        tenant: str = "",
        **attrs: object,
    ) -> Span:
        """Open a span; it parents every span started before its finish."""
        self._clock += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            # Inherit the enclosing span's query index and tenant:
            # layers below the replay loop (transport attempts, SQL
            # execution) don't know which query they serve, but their
            # parent does.
            if index < 0:
                index = parent.index
            tenant = tenant or parent.tenant
        span = Span(
            trace_id=self.trace_id,
            span_id=span_id_for(self.seed, index, name, self._clock),
            parent_id=parent.span_id if parent is not None else "",
            name=name,
            index=index,
            tenant=tenant,
            start=self._clock,
            end=0,
            attrs=attrs,  # a dict until finish freezes it
            wall_seconds=time.perf_counter() if self.wall_clock else None,
        )
        self._stack.append(span)
        return span

    def finish(
        self,
        span: Span,
        bytes_moved: int = 0,
        **attrs: object,
    ) -> Span:
        """Complete ``span`` (and any unclosed children) and record it."""
        span.bytes_moved += int(bytes_moved)
        span.attrs.update(attrs)
        # Pop through any children the traced code failed to close —
        # an exception unwound past them; close them at this tick so
        # the file stays well-formed.
        while True:
            closing = self._stack.pop() if self._stack else span
            self._clock += 1
            closing.end = self._clock
            closing.attrs = tuple(sorted(closing.attrs.items()))
            if closing.wall_seconds is not None:
                closing.wall_seconds = time.perf_counter() - closing.wall_seconds
            self.record(closing)
            if closing is span:
                return span

    # -- dispatch --------------------------------------------------------

    def record(self, span: Span) -> None:
        """Sanctioned dispatch: retain (when configured) and fan out."""
        self.spans_seen += 1
        if self.keep_spans:
            self.spans.append(span)
        for sink in self._sinks:
            sink.on_span(span)

    def reset(self) -> None:
        """Drop retained spans and rewind the logical clock (sinks stay)."""
        self.spans.clear()
        self.spans_seen = 0
        self._clock = 0
        self._stack.clear()

    def __repr__(self) -> str:
        return (
            f"SpanTracer(seed={self.seed}, spans_seen={self.spans_seen}, "
            f"clock={self._clock})"
        )


# ---------------------------------------------------------------------------
# File sink / reader
# ---------------------------------------------------------------------------


class SpanWriter(JsonlWriter, SpanSink):
    """Stream spans to a JSONL file next to the decision trace.

    Format (one JSON object per line)::

        {"span_trace": {"schema": 1, "seed": ..., "run_label": ...,
                        "trace_id": ...}}
        {...Span...}
        {...Span...}

    Same-seed runs produce byte-identical files: ids, ticks, and byte
    counts are all deterministic, keys are sorted, and wall-clock
    measurements never serialize.  One writer may be shared by several
    threads, and ``append=True`` opens an existing file for appending
    and skips the header when the file already has one (see
    :class:`~repro.obs.jsonl.JsonlWriter`).
    """

    def __init__(
        self,
        path: Union[str, Path],
        tracer: SpanTracer,
        extra: Optional[Mapping[str, object]] = None,
        append: bool = False,
    ) -> None:
        header: Dict[str, object] = {
            "schema": SPAN_SCHEMA,
            "seed": tracer.seed,
            "run_label": tracer.run_label,
            "trace_id": tracer.trace_id,
        }
        if extra:
            header.update(extra)
        super().__init__(
            path, {"span_trace": header}, "span writer", append
        )
        self._open(self.path)

    @property
    def spans_written(self) -> int:
        return self._written

    def on_span(self, span: Span) -> None:
        self.write(span)

    def write(self, span: Span) -> None:
        self.write_record(span.to_json())


class SpanReader(JsonlReader[Span]):
    """Read a span file written by :class:`SpanWriter`.

    The header is parsed eagerly (``reader.header``); spans stream
    lazily, a torn final line sets ``reader.truncated`` (see
    :class:`~repro.obs.jsonl.JsonlReader`).
    """

    header_key = "span_trace"
    nouns = ("span file", "span trace", "span-trace header")

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(path)
        meta = self._read_header()
        self.header: Dict[str, object] = (
            dict(meta) if isinstance(meta, dict) else {}
        )

    def _parse(self, line_no: int, line: str) -> Span:
        try:
            data = json.loads(line)
            return Span.from_json(data)
        except (
            json.JSONDecodeError, KeyError, TypeError, ValueError
        ) as exc:
            raise ConfigurationError(
                f"{self.path}:{line_no + 1}: malformed span: {exc}"
            ) from exc

    def read_all(self) -> List[Span]:
        return list(self)


# ---------------------------------------------------------------------------
# Chrome trace-event / Perfetto export
# ---------------------------------------------------------------------------


def to_chrome_trace(
    spans: Iterable[Span],
    label: str = "repro",
) -> Dict[str, object]:
    """Render spans as a Chrome trace-event JSON object.

    Loadable directly in Perfetto (https://ui.perfetto.dev) and
    ``chrome://tracing``.  One logical tick maps to one microsecond;
    tenants map to threads so multi-tenant runs get one swimlane per
    tenant.
    """
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    tenant_tids: Dict[str, int] = {}
    for span in spans:
        tid = tenant_tids.setdefault(span.tenant, len(tenant_tids) + 1)
        args: Dict[str, object] = {key: value for key, value in span.attrs}
        args["index"] = span.index
        if span.bytes_moved:
            args["bytes"] = span.bytes_moved
        if span.tenant:
            args["tenant"] = span.tenant
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start,
                "dur": max(span.duration, 1),
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    for tenant, tid in sorted(tenant_tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": tenant or "untagged"},
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(
    spans: Iterable[Span],
    path: Union[str, Path],
    label: str = "repro",
) -> Path:
    """Write the Perfetto-loadable export; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = to_chrome_trace(spans, label=label)
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=None) + "\n",
        encoding="utf-8",
    )
    return path


# ---------------------------------------------------------------------------
# Flamegraph aggregation
# ---------------------------------------------------------------------------


class FlameNode:
    """One stage in the aggregated top-down stage tree."""

    __slots__ = ("name", "count", "inclusive", "bytes_moved", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.inclusive = 0
        self.bytes_moved = 0
        self.children: Dict[str, "FlameNode"] = {}

    @property
    def exclusive(self) -> int:
        """Logical ticks spent in this stage itself (children removed)."""
        return self.inclusive - sum(
            child.inclusive for child in self.children.values()
        )


def aggregate_flame(spans: Iterable[Span]) -> FlameNode:
    """Fold spans into a top-down stage tree keyed by name paths.

    Each span contributes its logical duration and bytes to the node at
    its root-to-self name path; sibling occurrences of the same stage
    aggregate.  The returned synthetic root's ``inclusive`` is the sum
    over the real roots.
    """
    by_id: Dict[str, Span] = {}
    ordered: List[Span] = []
    for span in spans:
        by_id[span.span_id] = span
        ordered.append(span)

    def path_of(span: Span) -> Tuple[str, ...]:
        names: List[str] = []
        current: Optional[Span] = span
        hops = 0
        while current is not None and hops < 64:
            names.append(current.name)
            current = by_id.get(current.parent_id)
            hops += 1
        return tuple(reversed(names))

    root = FlameNode("")
    for span in ordered:
        node = root
        for name in path_of(span):
            node = node.children.setdefault(name, FlameNode(name))
        node.count += 1
        node.inclusive += span.duration
        node.bytes_moved += span.bytes_moved
    root.inclusive = sum(
        child.inclusive for child in root.children.values()
    )
    return root


def render_flamegraph(root: FlameNode) -> str:
    """Text rendering of the aggregated stage tree.

    Top-down, children sorted by inclusive ticks descending, with
    inclusive/exclusive logical time, byte totals, and call counts —
    the ``repro-report --flamegraph`` output.
    """
    total = root.inclusive or 1
    lines = [
        f"{'stage':<40} {'calls':>8} {'incl':>10} {'excl':>10} "
        f"{'incl%':>7} {'bytes':>14}"
    ]

    def walk(node: FlameNode, depth: int) -> None:
        for child in sorted(
            node.children.values(),
            key=lambda item: (-item.inclusive, item.name),
        ):
            label = ("  " * depth + child.name)[:40]
            lines.append(
                f"{label:<40} {child.count:>8} {child.inclusive:>10} "
                f"{child.exclusive:>10} "
                f"{100.0 * child.inclusive / total:>6.1f}% "
                f"{child.bytes_moved:>14}"
            )
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)
