"""Durable decision traces: JSONL streaming with a manifest header.

Format (one JSON object per line)::

    {"manifest": {...RunManifest...}}
    {...DecisionEvent...}
    {...DecisionEvent...}

:class:`TraceWriter` is also an :class:`~repro.core.instrumentation.Probe`,
so attaching it to an :class:`~repro.core.instrumentation.Instrumentation`
streams every decision straight to disk — the run itself needs no event
retention (``max_events=0``) and memory stays flat on arbitrarily long
traces.  :class:`TraceReader` restores the manifest and every event
exactly (tested round-trip), which is what makes cross-run diffing
(:mod:`repro.obs.report`) trustworthy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.instrumentation import DecisionEvent, Probe
from repro.errors import ConfigurationError
from repro.obs.jsonl import JsonlReader, JsonlWriter
from repro.obs.manifest import RunManifest


class TraceWriter(JsonlWriter, Probe):
    """Stream :class:`DecisionEvent` records to a JSONL trace file.

    Args:
        path: Destination file (parent directories are created).
        manifest: The run's attribution header, written first.
        rotate_events: When set, start a new segment file every this
            many events.  Segments are named ``<stem>.00000<suffix>``,
            ``<stem>.00001<suffix>``, … next to ``path``, and each
            carries its own manifest header so any segment is readable
            on its own (and a partial set survives a crash).  Million-
            query replays otherwise produce one unwieldy multi-gigabyte
            file.  ``None`` (default) writes a single file at ``path``.
        append: As in :class:`~repro.obs.jsonl.JsonlWriter`;
            incompatible with ``rotate_events``.

    Use as a context manager, or call :meth:`close` explicitly.  The
    writer flushes on close; ``events_written`` counts emitted records
    across all segments, and ``segments`` lists the files written.
    """

    def __init__(
        self,
        path: Union[str, Path],
        manifest: RunManifest,
        rotate_events: Optional[int] = None,
        append: bool = False,
    ) -> None:
        if rotate_events is not None and rotate_events <= 0:
            raise ConfigurationError(
                "rotate_events must be positive when given"
            )
        if append and rotate_events is not None:
            raise ConfigurationError(
                "append mode cannot rotate segments"
            )
        super().__init__(
            path, {"manifest": manifest.to_json()}, "trace writer", append
        )
        self.manifest = manifest
        self.rotate_events = rotate_events
        self.segments: List[Path] = []
        self._events_in_segment = 0
        self._open_segment()

    @property
    def events_written(self) -> int:
        """Events emitted so far, across all segments."""
        return self._written

    def _open_segment(self) -> None:
        index = len(self.segments)
        segment = self.path
        if self.rotate_events is not None:
            segment = self.path.with_name(
                f"{self.path.stem}.{index:05d}{self.path.suffix}"
            )
        self._open(segment)
        self.segments.append(segment)
        self._events_in_segment = 0

    def _before_line(self) -> None:
        """Roll to the next segment when this one is full."""
        if (
            self.rotate_events is not None
            and self._events_in_segment >= self.rotate_events
        ):
            assert self._handle is not None
            self._handle.close()
            self._open_segment()
        self._events_in_segment += 1

    def on_decision(self, event: DecisionEvent) -> None:
        """Probe hook: stream each decision as it happens."""
        self.write(event)

    def write(self, event: DecisionEvent) -> None:
        """Append one event line, rolling the segment when full."""
        self.write_record(event.to_json())


class TraceReader(JsonlReader[DecisionEvent]):
    """Read a JSONL trace written by :class:`TraceWriter`.

    The manifest is parsed eagerly (``reader.manifest``); events stream
    lazily through iteration, a torn final line sets ``truncated`` (see
    :class:`~repro.obs.jsonl.JsonlReader`).
    """

    header_key = "manifest"
    nouns = ("trace file", "trace", "trace header")

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(path)
        self.manifest = RunManifest.from_json(self._read_header())

    def _parse(self, line_no: int, line: str) -> DecisionEvent:
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{self.path}:{line_no + 1}: invalid JSON "
                f"event line"
            ) from exc
        try:
            return DecisionEvent.from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{self.path}:{line_no + 1}: malformed "
                f"decision event: {exc}"
            ) from exc

    def read_all(self) -> Tuple[RunManifest, List[DecisionEvent]]:
        """(manifest, every event) — convenience for small traces."""
        return self.manifest, list(self)


def read_trace(
    path: Union[str, Path]
) -> Tuple[RunManifest, List[DecisionEvent]]:
    """One-shot load of a trace file."""
    return TraceReader(path).read_all()


def rotated_segments(path: Union[str, Path]) -> List[Path]:
    """The segment files a rotating :class:`TraceWriter` produced for
    ``path``, in write order.

    Raises:
        ConfigurationError: no segments exist (wrong path, or the trace
            was written without rotation — read ``path`` directly then).
    """
    base = Path(path)
    pattern = f"{base.stem}.*{base.suffix}" if base.suffix else f"{base.stem}.*"
    segments = sorted(
        candidate
        for candidate in base.parent.glob(pattern)
        if _segment_index(base, candidate) is not None
    )
    if not segments:
        raise ConfigurationError(
            f"no rotated trace segments for {base}"
        )
    return segments


def _segment_index(base: Path, candidate: Path) -> Optional[int]:
    prefix = base.stem + "."
    name = candidate.name
    if base.suffix:
        if not name.endswith(base.suffix):
            return None
        name = name[: -len(base.suffix)]
    if not name.startswith(prefix):
        return None
    digits = name[len(prefix):]
    return int(digits) if digits.isdigit() else None


class RotatedTraceReader:
    """Read a rotated trace as one logical stream.

    ``manifest`` comes from the first segment (all segments carry the
    same header); iteration chains the segments' events in write order.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.segments = rotated_segments(self.path)
        self.manifest = TraceReader(self.segments[0]).manifest

    def __iter__(self) -> Iterator[DecisionEvent]:
        for segment in self.segments:
            yield from TraceReader(segment)
