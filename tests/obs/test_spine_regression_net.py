"""The telemetry spine emits what the four parent folds emitted.

``parent_spine_net.json`` is ``tests.obs.spine_net.capture()`` recorded
at the parent commit; every artefact of every run must still be equal,
byte for byte.
"""

import json
from pathlib import Path

import pytest

from tests.obs import spine_net

PARENT = json.loads(
    (Path(__file__).parent / "parent_spine_net.json").read_text()
)


@pytest.fixture(scope="module")
def captured():
    return spine_net.capture()


@pytest.mark.parametrize("run", sorted(PARENT))
def test_run_matches_the_parent_capture(captured, run):
    assert sorted(captured[run]) == sorted(PARENT[run])
    for artefact, recorded in PARENT[run].items():
        assert captured[run][artefact] == recorded, f"{run}/{artefact}"
