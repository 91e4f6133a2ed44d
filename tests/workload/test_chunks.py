"""On-disk chunked trace format: round-trip fidelity and manifest
metadata.

A chunked trace must restore every query exactly, agree with the
in-memory fingerprint (that identity keys the compiled-trace memo), and
answer all replay metadata — length, sequence bytes, static-policy
object totals — from the manifest alone.
"""

import json

import pytest

from repro.core.policies.static_select import accumulate_object_yields
from repro.errors import WorkloadError
from repro.workload.chunks import ChunkedTrace, ChunkManifest, write_chunked
from repro.workload.trace import PreparedQuery, PreparedTrace


def make_trace(n=20, name="chunked-unit"):
    queries = []
    for i in range(n):
        table = "PhotoObj" if i % 4 else "SpecObj"
        queries.append(
            PreparedQuery(
                index=i,
                sql=f"SELECT * FROM {table} WHERE objID = {i}",
                template="t",
                yield_bytes=100 + i,
                bypass_bytes=100 + i,
                table_yields={table: 100.0 + i},
                column_yields={f"{table}.objID": 100.0 + i},
                servers=("sdss",),
            )
        )
    return PreparedTrace(name, queries)


@pytest.fixture
def trace():
    return make_trace(20)


@pytest.fixture
def chunked(tmp_path, trace):
    write_chunked(tmp_path / "t", trace.name, trace.queries, chunk_size=7)
    return ChunkedTrace(tmp_path / "t")


class TestRoundTrip:
    def test_every_query_restored_exactly(self, chunked, trace):
        assert list(chunked) == trace.queries

    def test_reiterable(self, chunked):
        assert list(chunked) == list(chunked)

    def test_load_materializes_equal_trace(self, chunked, trace):
        loaded = chunked.load()
        assert loaded.queries == trace.queries
        assert loaded.name == trace.name

    def test_fingerprint_matches_in_memory_trace(self, chunked, trace):
        # Chunked on-disk, JSONL, and regenerated traces must agree on
        # identity — it keys the compiled-trace memo.
        assert chunked.fingerprint == trace.compute_fingerprint()

    def test_chunk_layout(self, tmp_path, trace):
        manifest = write_chunked(
            tmp_path / "layout", trace.name, trace.queries, chunk_size=7
        )
        assert [chunk.count for chunk in manifest.chunks] == [7, 7, 6]
        for chunk in manifest.chunks:
            path = tmp_path / "layout" / chunk.file
            assert path.exists()
            lines = path.read_text().strip().splitlines()
            assert len(lines) == chunk.count


class TestManifestMetadata:
    def test_replay_metadata_without_reading_chunks(self, chunked, trace):
        assert chunked.num_queries == len(trace)
        assert chunked.sequence_bytes == trace.sequence_bytes

    def test_object_totals_match_raw_attribution(self, chunked, trace):
        for granularity in ("table", "column"):
            assert chunked.object_totals(granularity) == (
                accumulate_object_yields(trace, granularity)
            )

    def test_manifest_json_round_trip(self, tmp_path, trace):
        manifest = write_chunked(
            tmp_path / "rt", trace.name, trace.queries, chunk_size=5
        )
        restored = ChunkManifest.from_json(manifest.to_json())
        assert restored == manifest


class TestErrors:
    def test_missing_manifest_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(WorkloadError, match="manifest"):
            ChunkedTrace(tmp_path / "empty")

    def test_bad_chunk_size_rejected(self, tmp_path, trace):
        with pytest.raises(WorkloadError, match="chunk_size"):
            write_chunked(
                tmp_path / "bad", trace.name, trace.queries, chunk_size=0
            )

    def test_unknown_format_tag_rejected(self, tmp_path, trace):
        directory = tmp_path / "fmt"
        write_chunked(directory, trace.name, trace.queries, chunk_size=5)
        manifest_path = directory / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["format"] = "someone-elses-format/9"
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(WorkloadError, match="unsupported"):
            ChunkedTrace(directory)

    def test_corrupt_chunk_line_rejected(self, tmp_path, trace):
        directory = tmp_path / "corrupt"
        write_chunked(directory, trace.name, trace.queries, chunk_size=5)
        chunk = directory / "chunk-00000.jsonl"
        chunk.write_text("not json\n")
        with pytest.raises(WorkloadError, match="invalid JSON"):
            list(ChunkedTrace(directory))
