"""Query streams: re-iterability, determinism, and metadata.

Generated streams must replay byte-identical queries on every pass (the
run-twice determinism and serial==parallel guarantees depend on it) and
expose a configuration fingerprint that identifies content without a
data pass.
"""

import pytest

from repro.core.policies.static_select import accumulate_object_yields
from repro.core.yield_model import make_yield_source
from repro.federation.mediator import Mediator
from repro.workload.generator import TraceConfig
from repro.workload.sdss_schema import PROFILES, build_federation
from repro.workload.stream import GeneratedStream, MaterializedStream
from repro.workload.trace import canonical_query_line

from tests.workload.test_chunks import make_trace


@pytest.fixture(scope="module")
def mediator():
    return Mediator(build_federation(PROFILES["small"]))


def estimated_stream(mediator, **config_overrides):
    config = TraceConfig(
        num_queries=config_overrides.pop("num_queries", 40),
        flavor=config_overrides.pop("flavor", "edr"),
        **config_overrides,
    )
    source = make_yield_source("estimated", mediator=mediator)
    return GeneratedStream(config, mediator, source, PROFILES["small"])


class TestGeneratedStream:
    def test_two_passes_are_byte_identical(self, mediator):
        stream = estimated_stream(mediator)
        first = [canonical_query_line(q) for q in stream]
        second = [canonical_query_line(q) for q in stream]
        assert first == second
        assert len(first) == 40

    def test_length_known_without_a_pass(self, mediator):
        stream = estimated_stream(mediator, num_queries=77)
        assert stream.num_queries == 77
        # Totals and sequence bytes need a pass; a bare generated
        # stream declines rather than taking one.
        assert stream.sequence_bytes is None
        assert stream.object_totals("table") is None

    def test_fingerprint_is_stable_across_instances(self, mediator):
        assert (
            estimated_stream(mediator).fingerprint
            == estimated_stream(mediator).fingerprint
        )

    def test_fingerprint_distinguishes_configs(self, mediator):
        base = estimated_stream(mediator)
        assert base.fingerprint != estimated_stream(
            mediator, num_queries=41
        ).fingerprint
        assert base.fingerprint != estimated_stream(
            mediator, flavor="dr1"
        ).fingerprint
        assert base.fingerprint != estimated_stream(
            mediator, seed=12345
        ).fingerprint

    def test_fingerprint_distinguishes_yield_modes(self, mediator):
        estimated = estimated_stream(mediator)
        exact = GeneratedStream(
            TraceConfig(num_queries=40, flavor="edr"),
            mediator,
            make_yield_source("exact", mediator=mediator),
            PROFILES["small"],
        )
        assert estimated.fingerprint != exact.fingerprint
        assert estimated.name.endswith("-estimated")

    def test_indices_are_sequential(self, mediator):
        stream = estimated_stream(mediator, num_queries=25)
        assert [q.index for q in stream] == list(range(25))


class TestMaterializedStream:
    def test_wraps_trace_metadata(self):
        trace = make_trace(12)
        stream = MaterializedStream(trace)
        assert stream.name == trace.name
        assert stream.num_queries == 12
        assert stream.sequence_bytes == trace.sequence_bytes
        assert list(stream) == trace.queries

    def test_fingerprint_computed_on_demand(self):
        trace = make_trace(6)
        assert trace.fingerprint is None
        stream = MaterializedStream(trace)
        assert stream.fingerprint == trace.fingerprint is not None

    def test_object_totals_available(self):
        trace = make_trace(10)
        stream = MaterializedStream(trace)
        assert stream.object_totals("table") == (
            accumulate_object_yields(trace, "table")
        )
