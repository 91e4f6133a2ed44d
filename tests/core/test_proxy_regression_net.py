"""The proxy moves, emits and answers what its own-body parent did.

``parent_proxy_net.json`` is ``tests.core.proxy_net.capture()`` recorded
at the parent commit; every artefact of every case must still be equal.
"""

import json
from pathlib import Path

import pytest

from tests.core import proxy_net

PARENT = json.loads(
    (Path(__file__).parent / "parent_proxy_net.json").read_text()
)


@pytest.fixture(scope="module")
def captured():
    return proxy_net.capture()


@pytest.mark.parametrize("case", sorted(PARENT))
def test_case_matches_the_parent_capture(captured, case):
    assert sorted(captured[case]) == sorted(PARENT[case])
    for artefact, recorded in PARENT[case].items():
        assert captured[case][artefact] == recorded, f"{case}/{artefact}"
