"""Trace preparation: measure (or estimate) every query's yield once.

The paper measures yields "by re-executing the traces with the server";
we do the same against the synthetic federation through
:class:`~repro.core.yield_model.ExactYieldSource`, then persist the
measurements so that the many simulator runs of the cache-size sweeps
never touch SQL again.  The estimated source swaps execution for
catalog statistics without changing anything downstream.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.core.yield_model import (
    ExactYieldSource,
    YieldSource,
    attribute_yield_columns,
    attribute_yield_tables,
    make_yield_source,
)
from repro.federation.mediator import Mediator
from repro.sqlengine.statistics import YieldEstimator
from repro.workload.trace import (
    PreparedQuery,
    PreparedTrace,
    Trace,
    TraceRecord,
)


def prepared_name(name: str, source: YieldSource) -> str:
    """The name of ``name`` prepared through ``source``: exact yields
    keep it, any other yield mode appends ``-<mode>``."""
    return name if source.mode == "exact" else f"{name}-{source.mode}"


def prepare_query(
    record: TraceRecord, mediator: Mediator, source: YieldSource
) -> PreparedQuery:
    """Plan, measure, and attribute one raw trace record."""
    plan = mediator.plan(record.sql)
    servers = tuple(mediator.servers_for_plan(plan))
    measured = source.measure(record.sql, plan, servers)
    return PreparedQuery(
        index=record.index,
        sql=record.sql,
        template=record.template,
        yield_bytes=measured.yield_bytes,
        bypass_bytes=measured.bypass_bytes,
        table_yields=attribute_yield_tables(plan, measured.yield_bytes),
        column_yields=attribute_yield_columns(plan, measured.yield_bytes),
        servers=servers,
    )


def iter_prepared(
    records: Iterable[TraceRecord],
    mediator: Mediator,
    source: YieldSource,
) -> Iterator[PreparedQuery]:
    """Stream prepared queries one at a time — the constant-memory path.

    Million-query runs chain the generator's record iterator into this
    and never hold more than one prepared query; ``prepare_trace`` is
    the materializing wrapper for the classic sweeps.
    """
    for record in records:
        yield prepare_query(record, mediator, source)


def prepare_trace(
    trace: Trace,
    mediator: Mediator,
    source: Optional[YieldSource] = None,
) -> PreparedTrace:
    """Measure every query of ``trace`` (exactly, unless told otherwise).

    Args:
        trace: Raw trace.
        mediator: Federation front-end used for evaluation.  No WAN
            traffic is charged during preparation.
        source: Yield source; defaults to executing each query
            (:class:`~repro.core.yield_model.ExactYieldSource`).

    Returns:
        A :class:`~repro.workload.trace.PreparedTrace` carrying per-query
        yields and per-object attributions at both granularities.
    """
    if source is None:
        source = ExactYieldSource(mediator)
    prepared = PreparedTrace(name=prepared_name(trace.name, source))
    for record in trace:
        prepared.queries.append(  # repro-lint: allow[RPR007] batch preparation API; scale path uses GeneratedStream
            prepare_query(record, mediator, source)
        )
    prepared.compute_fingerprint()
    return prepared


def estimate_trace(
    trace: Trace,
    mediator: Mediator,
    estimator: Optional[YieldEstimator] = None,
) -> PreparedTrace:
    """Statistics-only trace preparation: no query is executed.

    Yields come from :class:`~repro.sqlengine.statistics.YieldEstimator`
    instead of measurement, making preparation O(plans) instead of
    O(data).  A production mediator would run this way; the estimation
    ablation benchmark quantifies what the cache loses to the
    estimation error.
    """
    source = make_yield_source(
        "estimated", mediator=mediator, estimator=estimator
    )
    return prepare_trace(trace, mediator, source)
