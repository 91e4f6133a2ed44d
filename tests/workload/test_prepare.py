"""Unit tests for trace preparation (yield measurement)."""

import pytest

from repro.workload.prepare import prepare_trace
from repro.workload.trace import Trace, TraceRecord


def make_trace(*sqls):
    trace = Trace("unit")
    for i, sql in enumerate(sqls):
        trace.append(TraceRecord(i, sql, "t"))
    return trace


class TestPrepare:
    def test_yield_matches_execution(self, mediator):
        trace = make_trace("SELECT objID, ra FROM PhotoObj")
        prepared = prepare_trace(trace, mediator)
        assert prepared.queries[0].yield_bytes == 20 * 16

    def test_single_server_bypass_equals_yield(self, mediator):
        trace = make_trace("SELECT objID FROM PhotoObj WHERE objID < 5")
        prepared = prepare_trace(trace, mediator)
        query = prepared.queries[0]
        assert query.bypass_bytes == query.yield_bytes
        assert query.servers == ("sdss",)

    def test_attributions_recorded(self, mediator):
        trace = make_trace(
            "SELECT p.objID, s.z FROM PhotoObj p, SpecObj s "
            "WHERE p.objID = s.objID"
        )
        prepared = prepare_trace(trace, mediator)
        query = prepared.queries[0]
        assert set(query.table_yields) == {"PhotoObj", "SpecObj"}
        assert sum(query.table_yields.values()) == pytest.approx(
            query.yield_bytes
        )
        assert sum(query.column_yields.values()) == pytest.approx(
            query.yield_bytes
        )

    def test_preparation_is_accounting_neutral(self, mediator):
        trace = make_trace(
            "SELECT objID FROM PhotoObj",
            "SELECT z FROM SpecObj",
        )
        prepare_trace(trace, mediator)
        assert mediator.ledger.wan_bytes == 0

    def test_sequence_bytes_sums(self, mediator):
        trace = make_trace(
            "SELECT objID FROM PhotoObj",      # 160
            "SELECT COUNT(*) FROM SpecObj",    # 8
        )
        prepared = prepare_trace(trace, mediator)
        assert prepared.sequence_bytes == 168

    def test_template_propagated(self, mediator):
        trace = Trace("t")
        trace.append(
            TraceRecord(0, "SELECT objID FROM PhotoObj", "identity", "th")
        )
        prepared = prepare_trace(trace, mediator)
        assert prepared.queries[0].template == "identity"
