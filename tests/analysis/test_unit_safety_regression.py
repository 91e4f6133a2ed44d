"""Unit-safety regression: the PR-1 mixed-currency proxy bug.

The seed proxy handed policies link-weighted fetch costs paired with
raw-byte yields, silently inverting BYHR cache preference on weighted
links.  This module pins both guards that keep it from coming back:

* behaviourally — on a weighted link, the pipeline's BYHR view quotes
  fetch cost *and* yield in the same (weighted) currency, and the BYU
  view quotes both in raw bytes;
* statically — repro-lint RPR001 flags the historical proxy pattern,
  while the fixed pipeline and proxy sources lint clean.
"""

from pathlib import Path

import pytest

from repro.core.pipeline import DecisionPipeline
from repro.core.units import per_byte_weight, weigh
from repro.federation import Federation

from tests.analysis.lintkit import lint, lint_source
from tests.conftest import build_catalog

SRC = Path(__file__).parent.parent.parent / "src" / "repro"

LINK_WEIGHT = 4.0

#: The seed-revision proxy shape (git 9d89cf0), preserved as source so
#: the linter can prove it would be caught today.
PRE_FIX_PROXY_PATTERN = '''
def build_requests(self, object_yields):
    requests = []
    for object_id, share in sorted(object_yields.items()):
        requests.append(
            ObjectRequest(
                object_id=object_id,
                size=self.federation.object_size(object_id),
                fetch_cost=self.federation.fetch_cost(object_id),
                yield_bytes=share,
            )
        )
    return requests
'''


@pytest.fixture
def weighted_federation() -> Federation:
    federation = Federation.single_site(build_catalog(), server_name="sdss")
    federation.network.set_link("sdss", LINK_WEIGHT)
    return federation


class TestWeightedLinkCurrencies:
    def test_byhr_view_quotes_cost_and_yield_in_the_same_currency(
        self, weighted_federation
    ):
        pipeline = DecisionPipeline(
            weighted_federation, "table", policy_sees_weights=True
        )
        share = 1000.0
        query = pipeline.build_query(
            index=0,
            object_yields={"PhotoObj": share},
            yield_bytes=1000,
            bypass_bytes=1000,
        )
        (request,) = query.objects
        size = pipeline.catalog.size("PhotoObj")
        # Fetch price is the weighted whole-object cost...
        assert request.fetch_cost == pytest.approx(
            weigh(size, LINK_WEIGHT)
        )
        # ...and the yield is weighed with the *same* per-byte weight,
        # so the policy's load-vs-savings comparison is dimensionless.
        weight = per_byte_weight(request.fetch_cost, size)
        assert weight == pytest.approx(LINK_WEIGHT)
        assert request.yield_bytes == pytest.approx(weigh(share, weight))

    def test_byu_view_quotes_both_in_raw_bytes(self, weighted_federation):
        pipeline = DecisionPipeline(
            weighted_federation, "table", policy_sees_weights=False
        )
        share = 1000.0
        query = pipeline.build_query(
            index=0,
            object_yields={"PhotoObj": share},
            yield_bytes=1000,
            bypass_bytes=1000,
        )
        (request,) = query.objects
        assert request.fetch_cost == pipeline.catalog.size("PhotoObj")
        assert request.yield_bytes == pytest.approx(share)

    def test_weighted_link_raises_relative_value(self, weighted_federation):
        """The economic fact the bug inverted: under BYHR the same share
        is worth ``LINK_WEIGHT``x more behind the weighted link."""
        weighted = DecisionPipeline(
            weighted_federation, "table", policy_sees_weights=True
        )
        uniform = DecisionPipeline(
            Federation.single_site(build_catalog(), server_name="sdss"),
            "table",
            policy_sees_weights=True,
        )
        share = 500.0
        kwargs = dict(
            index=0,
            object_yields={"PhotoObj": share},
            yield_bytes=500,
            bypass_bytes=500,
        )
        (expensive,) = weighted.build_query(**kwargs).objects
        (cheap,) = uniform.build_query(**kwargs).objects
        assert expensive.yield_bytes == pytest.approx(
            LINK_WEIGHT * cheap.yield_bytes
        )


class TestStaticGuard:
    def test_lint_flags_the_pre_fix_proxy_pattern(self):
        violations = lint_source(
            PRE_FIX_PROXY_PATTERN,
            Path("pre_fix_proxy.py"),
            select=["RPR001"],
        )
        assert len(violations) == 1
        assert "yield_bytes=" in violations[0].message

    @pytest.mark.parametrize(
        "module",
        ["core/pipeline.py", "core/proxy.py", "federation/network.py"],
    )
    def test_fixed_sources_lint_clean(self, module):
        assert lint(SRC / module, select=["RPR001"]) == []
