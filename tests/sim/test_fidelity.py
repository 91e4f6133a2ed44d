"""Estimator fidelity: accuracy bounds and decision-flip rate.

The estimated-yield mode substitutes catalog-statistics guesses for
executed result sizes.  These tests pin what that substitution costs on
the canonical workloads: per-template relative error stays within each
template's characteristic bound (point lookups near-exact, selective
scans overestimated), and the end-to-end decision-flip rate — the
fraction of queries where the estimated-yield policy makes a different
serve/bypass call — stays under threshold.
"""

import pytest

from repro.core.policies import make_policy
from repro.errors import CacheError
from repro.federation.mediator import Mediator
from repro.sim.fidelity import decision_flip_rate, yield_errors
from repro.workload.generator import TraceConfig, generate_trace
from repro.workload.prepare import estimate_trace, prepare_trace
from repro.workload.sdss_schema import PROFILES, build_federation

CAPACITY = 40_000_000

#: Per-template mean-relative-error ceilings.  Point lookups resolve
#: through primary-key statistics and are near-exact; range templates
#: carry selectivity error; highly selective templates (tiny exact
#: results) overestimate hardest, bounded by the estimator's worst
#: measured overshoot with headroom.
TEMPLATE_ERROR_BOUNDS = {
    "identity": 0.01,
    "neighbors_scan": 0.10,
    "frame_sky": 1.0,
    "region_tag": 1.0,
    "mask_lookup": 5.0,
    "neighbors": 30.0,
    "objprofile_fetch": 30.0,
}

FLIP_RATE_THRESHOLD = 0.15


@pytest.fixture(scope="module", params=["edr", "dr1"])
def traces(request):
    mediator = Mediator(build_federation(PROFILES["small"]))
    trace = generate_trace(
        TraceConfig(num_queries=150, flavor=request.param),
        PROFILES["small"],
    )
    exact = prepare_trace(trace, mediator)
    estimated = estimate_trace(trace, mediator)
    return mediator, exact, estimated


class TestYieldErrors:
    def test_every_template_within_its_bound(self, traces):
        _, exact, estimated = traces
        errors = yield_errors(exact, estimated)
        assert errors, "workload produced no templates"
        for entry in errors:
            bound = TEMPLATE_ERROR_BOUNDS.get(entry.template)
            assert bound is not None, (
                f"unexpected template {entry.template!r}; add an "
                f"accuracy bound for it"
            )
            assert entry.mean_relative_error <= bound, (
                f"{entry.template}: mean relative error "
                f"{entry.mean_relative_error:.3f} exceeds {bound}"
            )

    def test_point_lookups_are_exact(self, traces):
        _, exact, estimated = traces
        by_template = {
            entry.template: entry
            for entry in yield_errors(exact, estimated)
        }
        identity = by_template["identity"]
        assert identity.max_relative_error == 0.0

    def test_error_report_covers_every_query(self, traces):
        _, exact, estimated = traces
        errors = yield_errors(exact, estimated)
        assert sum(entry.queries for entry in errors) == len(exact)

    def test_misaligned_traces_rejected(self, traces):
        _, exact, estimated = traces
        truncated = type(estimated)(
            name=estimated.name, queries=estimated.queries[:-1]
        )
        with pytest.raises(CacheError, match="length mismatch"):
            yield_errors(exact, truncated)


class TestDecisionFlipRate:
    def test_flip_rate_under_threshold(self, traces):
        mediator, exact, estimated = traces
        report = decision_flip_rate(
            mediator.federation,
            exact,
            estimated,
            lambda: make_policy("online-by", CAPACITY),
        )
        assert report.queries == len(exact)
        assert 0.0 <= report.flip_rate <= FLIP_RATE_THRESHOLD, (
            f"decision flip rate {report.flip_rate:.3f} exceeds "
            f"{FLIP_RATE_THRESHOLD}"
        )

    def test_wan_penalty_is_bounded(self, traces):
        # Flipped decisions cost real bytes; the estimated-decision
        # WAN total (priced at exact bypass bytes) must stay within
        # 2x of the exact-decision replay.
        mediator, exact, estimated = traces
        report = decision_flip_rate(
            mediator.federation,
            exact,
            estimated,
            lambda: make_policy("online-by", CAPACITY),
        )
        assert report.wan_penalty < 2.0

    def test_identical_traces_never_flip(self, traces):
        mediator, exact, _ = traces
        report = decision_flip_rate(
            mediator.federation,
            exact,
            exact,
            lambda: make_policy("online-by", CAPACITY),
        )
        assert report.flips == 0
        assert report.flip_rate == 0.0
        assert report.wan_penalty == 1.0
        for entry in report.template_errors:
            assert entry.mean_relative_error == 0.0
