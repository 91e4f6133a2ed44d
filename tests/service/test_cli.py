"""CLI hardening: garbage knobs exit 2 across both service entrypoints.

``repro-serve`` and the load generator both route their knobs through
the hardened parsers — a typo'd flag must
exit 2 with the flag named on stderr, never fall back to a default.
"""

import pytest

from repro.service.cli import main as serve_main
from repro.service.loadgen import main as loadgen_main


def _stderr(capsys):
    return capsys.readouterr().err


class TestReproServeExitCodes:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--port", "bogus"], "--port"),
            (["--port", "70000"], "--port"),
            (["--max-inflight", "0"], "--max-inflight"),
            (["--max-inflight", "many"], "--max-inflight"),
            (["--tenant-rate", "fast"], "--tenant-rate"),
            (["--tenant-rate", "-2"], "--tenant-rate"),
            (["--queue-depth", "0"], "--queue-depth"),
            (["--capacity-frac", "1.5"], "capacity-frac"),
            (["--capacity-frac", "0"], "capacity-frac"),
            (["--policy", "static"], "--trace"),
            (
                ["--trace", "/nonexistent/trace.jsonl"],
                "no such trace file",
            ),
        ],
    )
    def test_garbage_exits_2(self, capsys, argv, needle):
        assert serve_main(argv) == 2
        assert needle in _stderr(capsys)


class TestLoadgenExitCodes:
    URL = ["--url", "http://127.0.0.1:1", "--trace", "x.jsonl"]

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (URL + ["--tenants", "0"], "--tenants"),
            (URL + ["--tenants", "lots"], "--tenants"),
            (URL + ["--seed", "-1"], "--seed"),
            (URL + ["--batch", "0"], "--batch"),
            (
                [
                    "--url",
                    "ftp://host",
                    "--trace",
                    "x.jsonl",
                ],
                "--url",
            ),
        ],
    )
    def test_garbage_exits_2(self, capsys, argv, needle):
        assert loadgen_main(argv) == 2
        assert needle in _stderr(capsys)

    def test_missing_trace_exits_2(self, capsys):
        argv = [
            "--url",
            "http://127.0.0.1:1",
            "--trace",
            "/nonexistent/trace.jsonl",
        ]
        assert loadgen_main(argv) == 2
        assert "trace" in _stderr(capsys)
