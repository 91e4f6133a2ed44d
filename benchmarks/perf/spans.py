"""In-memory spans for the traced run, recorded from the benchmark's side.

A span is (name, start, end, parent, query id).  Spans are appended to
parallel lists while the run is going and written out once, as one
columnar JSON document, when it ends — the hot loops pay five list
appends per span and nothing else.

A layer's *self time* is its span's duration minus the part its child
spans cover; :meth:`SpanLog.self_times` sums that per span name, which
is what the per-layer ``*_s`` / ``*_count`` metrics report.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

SPAN_SCHEMA = 1

#: Query id of spans that belong to a whole call, not to one query.
NO_QUERY = -1


class SpanLog:
    """Append-only span store with self-time aggregation."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.query: List[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        """Intern ``name``; hot loops carry the small integer."""
        found = self._name_ids.get(name)
        if found is None:
            found = len(self.names)
            self.names.append(name)
            self._name_ids[name] = found
        return found

    def open(self, name_id: int, parent: int, query: int, start: float) -> int:
        """Start a span that will get children; returns its index."""
        index = len(self.name)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(parent)
        self.query.append(query)
        return index

    def close(self, index: int, end: float) -> None:
        self.end[index] = end

    def leaf(
        self, name_id: int, start: float, end: float, parent: int, query: int
    ) -> None:
        """Record a finished childless span."""
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.query.append(query)

    def wrap(
        self, name: str, call: Callable[..., Any], context: List[int]
    ) -> Callable[..., Any]:
        """``call`` with a leaf span around it, for calls made *inside*
        a src loop the benchmark cannot re-own.

        ``context`` is ``[parent span, query id]``, kept current by the
        loop that owns the enclosing span.
        """
        name_id = self.name_id(name)
        leaf = self.leaf

        def spanned(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                leaf(name_id, start, perf_counter(), context[0], context[1])

        return spanned

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """name -> (summed self seconds, span count)."""
        covered = [0.0] * len(self.name)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        seconds = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for index, name_id in enumerate(self.name):
            seconds[name_id] += (
                self.end[index] - self.start[index] - covered[index]
            )
            counts[name_id] += 1
        return {
            name: (seconds[name_id], counts[name_id])
            for name_id, name in enumerate(self.names)
        }

    def nesting_errors(self, limit: int = 5) -> List[str]:
        """Spans that escape their parent or change query id (empty ==
        every tree nests and carries one query id)."""
        errors: List[str] = []
        for index, parent in enumerate(self.parent):
            if parent < 0:
                continue
            if not 0 <= parent < index:
                errors.append(f"span {index}: parent {parent} not earlier")
            elif not (
                self.start[parent] <= self.start[index]
                and self.end[index] <= self.end[parent]
            ):
                errors.append(f"span {index}: not inside parent {parent}")
            elif self.query[index] != self.query[parent]:
                errors.append(f"span {index}: query id differs from parent")
            if len(errors) >= limit:
                break
        return errors

    # -- persistence -----------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span, times relative to the log's origin."""
        origin = self.origin
        document = {
            "span_log": SPAN_SCHEMA,
            "names": self.names,
            "name": self.name,
            "start": [round(value - origin, 7) for value in self.start],
            "end": [round(value - origin, 7) for value in self.end],
            "parent": self.parent,
            "query": self.query,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))

    @classmethod
    def load(cls, path: Path) -> "SpanLog":
        with path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("span_log") != SPAN_SCHEMA:
            raise ValueError(f"{path}: not a span log (schema {SPAN_SCHEMA})")
        log = cls()
        log.origin = 0.0
        for name in document["names"]:
            log.name_id(name)
        log.name = list(document["name"])
        log.start = list(document["start"])
        log.end = list(document["end"])
        log.parent = list(document["parent"])
        log.query = list(document["query"])
        lengths = {
            len(column)
            for column in (log.name, log.start, log.end, log.parent, log.query)
        }
        if len(lengths) != 1:
            raise ValueError(f"{path}: span columns differ in length")
        return log
