"""The one JSONL file format behind decision traces and span files.

One JSON object per line: a header object on line 1, then records,
every line ``sort_keys``-stable so same-seed runs write identical
bytes.  The trace and span classes add only what a record is.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import (
    IO,
    Any,
    Generic,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.errors import ConfigurationError

Record = TypeVar("Record")
Writer = TypeVar("Writer", bound="JsonlWriter")


class JsonlWriter:
    """Write a header line, then one sorted-key JSON line per record.

    Writes are serialized by a single internal lock, so one writer may
    be shared by several threads (the mediator service's probes fire
    from worker tasks) and each line lands whole.  The lock is
    *in-process* only — two processes appending to one file still
    corrupt it.  ``append=True`` opens an existing file for appending
    and writes the header only when the file is new (or empty).
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: Mapping[str, object],
        noun: str,
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.append = append
        self._header = header
        self._noun = noun
        self._written = 0
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None

    def _open(self, path: Path) -> None:
        """Make ``path`` the file written to (constructors open their
        first file with this)."""
        has_header = (
            self.append and path.exists() and path.stat().st_size > 0
        )
        self._handle = path.open(
            "a" if self.append else "w", encoding="utf-8"
        )
        if not has_header:
            self._handle.write(
                json.dumps(self._header, sort_keys=True) + "\n"
            )

    def _before_line(self) -> None:
        """Runs under the lock before each record line: where
        :class:`~repro.obs.trace_io.TraceWriter` rotates segments."""

    def write_record(self, record: Mapping[str, object]) -> None:
        """Append one record line."""
        with self._lock:
            if self._handle is None:
                raise ConfigurationError(
                    f"{self._noun} for {self.path} is closed"
                )
            self._before_line()
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self: Writer) -> Writer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JsonlReader(Generic[Record]):
    """Read a file :class:`JsonlWriter` wrote.

    Records stream lazily through iteration, so summarizing a
    multi-gigabyte file never materializes it.  A malformed *final*
    line is a crash mid-write, not corruption: iteration yields the
    complete prefix and sets ``truncated`` instead of raising.
    Malformed lines anywhere else still raise — a record silently
    dropped from the middle of a file would corrupt every diff
    downstream.
    """

    #: The single key of the line-1 object.
    header_key = ""
    #: (the file, its contents, its header), as error texts call them.
    nouns: Tuple[str, str, str] = ("file", "file", "header")

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise ConfigurationError(
                f"no such {self.nouns[0]}: {self.path}"
            )
        #: True once iteration has discarded a truncated trailing line.
        self.truncated = False

    def _read_header(self) -> Any:
        """The value under :attr:`header_key` on line 1."""
        _, contents, header_noun = self.nouns
        with self.path.open("r", encoding="utf-8") as handle:
            first = handle.readline().strip()
        if not first:
            raise ConfigurationError(
                f"{self.path}: empty file is not a {contents}"
            )
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{self.path}:1: invalid JSON in {header_noun}"
            ) from exc
        if not isinstance(header, dict) or self.header_key not in header:
            raise ConfigurationError(
                f"{self.path}:1: {header_noun} must be a "
                f'{{"{self.header_key}": ...}} object'
            )
        return header[self.header_key]

    def __iter__(self) -> Iterator[Record]:
        with self.path.open("r", encoding="utf-8") as handle:
            # One line of lookahead: a parse failure is only tolerated
            # when no complete line follows it (crash mid-write).
            pending: Optional[Tuple[int, str]] = None
            for line_no, line in enumerate(handle):
                if line_no == 0:
                    continue
                stripped = line.strip()
                if not stripped:
                    continue
                if pending is not None:
                    yield self._parse(*pending)
                pending = (line_no, stripped)
            if pending is not None:
                try:
                    yield self._parse(*pending)
                except ConfigurationError:
                    self.truncated = True

    def _parse(self, line_no: int, line: str) -> Record:
        """The record on ``line``, or a :class:`ConfigurationError`
        naming ``path:line``."""
        raise NotImplementedError
