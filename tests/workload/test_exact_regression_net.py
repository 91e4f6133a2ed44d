"""Exact yields are what the tuple-building executor measured.

``parent_exact_net.json`` is ``tests.workload.exact_net.capture()``
recorded at the parent commit; every prepared-stream fingerprint and
every query's ``(yield_bytes, bypass_bytes)`` must still be equal —
counted from positions (numpy present) and built row by row (absent).
"""

import json
from pathlib import Path

import pytest

from repro.sqlengine import vectorized

from tests.workload import exact_net

PARENT = json.loads(
    (Path(__file__).parent / "parent_exact_net.json").read_text()
)


@pytest.fixture(scope="module")
def federation():
    return exact_net.build_federation()


@pytest.mark.parametrize("numpy", ["with", "without"])
def test_capture_matches_the_parent(federation, numpy, monkeypatch):
    if numpy == "without":
        monkeypatch.setattr(vectorized, "HAVE_NUMPY", False)
    elif not vectorized.HAVE_NUMPY:
        pytest.skip("numpy not installed")
    captured = exact_net.capture(federation)
    assert sorted(captured) == sorted(PARENT)
    for run, recorded in PARENT.items():
        assert captured[run]["yields"] == recorded["yields"], run
        assert captured[run]["fingerprint"] == recorded["fingerprint"], run
