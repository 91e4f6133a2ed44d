"""The generated federation's data, pinned by SHA-256.

Every figure, golden net and benchmark replays against
``build_federation(profile)``.  These digests cover every value of every
table on every server, with its Python type, so a loader change that
moves one value or changes one type (``int`` for ``float``, a numpy
scalar for a builtin) fails here directly, not only through the golden
nets that happen to read that value.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.workload.sdss_schema import SMALL, TINY, build_federation

PINNED = {
    TINY.name: "c2f440d6ac96033f4af4848fce19b06c7f6345c63be5ae04cfef00059c4a94ef",
    SMALL.name: "5a25d290b472aa2cc7bb29517658ace9dbd8ea8f3f0fe1cfe09981d7326ed700",
}


def federation_digest(federation) -> str:
    """SHA-256 over each table's row count, version, indexed columns and
    index contents, and column vectors as ``(type name, repr)`` cells."""
    digest = hashlib.sha256()

    def feed(*parts: object) -> None:
        digest.update(repr(parts).encode("utf-8"))
        digest.update(b"\n")

    for server in sorted(federation.servers, key=lambda s: s.name):
        for table in sorted(server.catalog.tables(), key=lambda t: t.name):
            feed("table", server.name, table.name, table.row_count,
                 table.version)
            for column in table.schema.columns:
                values = table.column_values(column.name)
                feed("column", column.name, column.ctype.value, len(values))
                for value in values:
                    feed(type(value).__name__, repr(value))
                if table.has_index(column.name):
                    feed("index", column.name)
                    for value in dict.fromkeys(values):
                        feed(repr(value),
                             table.index_positions(column.name, value))
    return digest.hexdigest()


@pytest.mark.parametrize("profile", [TINY, SMALL], ids=lambda p: p.name)
def test_federation_data_pinned(profile):
    assert federation_digest(build_federation(profile)) == (
        PINNED[profile.name]
    )


def test_digest_sees_one_changed_type():
    federation = build_federation(TINY)
    before = federation_digest(federation)
    photo = federation.server("sdss").catalog.table("PhotoObj")
    vector = photo.column_values("ra")
    vector[0] = int(vector[0])  # an int where a float was
    assert federation_digest(federation) != before


def test_federation_pickles_and_still_inserts():
    # Process pools pickle the federation under spawn and forkserver.
    federation = build_federation(TINY)
    copy = pickle.loads(pickle.dumps(federation))
    assert federation_digest(copy) == federation_digest(federation)
    photo = copy.server("sdss").catalog.table("PhotoObj")
    row = [photo.column_values(c.name)[0] for c in photo.schema.columns]
    photo.insert(row)
    assert photo.row_count == (
        federation.server("sdss").catalog.table("PhotoObj").row_count + 1
    )
