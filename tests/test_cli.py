"""Tests for the command-line entry points."""

import json

import pytest

from repro.workload.make_trace import main as make_trace_main
from repro.workload.trace import PreparedTrace, Trace


class TestMakeTrace:
    def test_generates_trace_file(self, tmp_path, capsys):
        output = tmp_path / "trace.jsonl"
        code = make_trace_main(
            [
                "--flavor", "edr", "-n", "40", "--profile", "tiny",
                "-o", str(output),
            ]
        )
        assert code == 0
        loaded = Trace.load(output)
        assert len(loaded) == 40
        assert "wrote 40 queries" in capsys.readouterr().out

    def test_prepare_flag_writes_yields(self, tmp_path):
        output = tmp_path / "trace.jsonl"
        code = make_trace_main(
            [
                "--flavor", "dr1", "-n", "25", "--profile", "tiny",
                "--prepare", "-o", str(output),
            ]
        )
        assert code == 0
        prepared = PreparedTrace.load(
            tmp_path / "trace.jsonl.prepared.jsonl"
        )
        assert len(prepared) == 25
        assert prepared.sequence_bytes > 0

    def test_seed_reproducibility(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            make_trace_main(
                [
                    "-n", "30", "--profile", "tiny", "--seed", "5",
                    "-o", str(path),
                ]
            )
        assert [r.sql for r in Trace.load(a)] == [
            r.sql for r in Trace.load(b)
        ]

    def test_prepared_bytes_do_not_follow_the_hash_seed(self, tmp_path):
        # Same seed, same bytes on disk: the key order inside
        # ``column_yields`` must come from the schema, not from a set.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        written = []
        for hash_seed in ("1", "2"):
            output = tmp_path / f"hash{hash_seed}.jsonl"
            subprocess.run(
                [
                    sys.executable, "-m", "repro.workload.make_trace",
                    "-n", "60", "--profile", "tiny", "--prepare",
                    "-o", str(output),
                ],
                check=True,
                capture_output=True,
                timeout=120,
                env={
                    **os.environ,
                    "PYTHONPATH": src,
                    "PYTHONHASHSEED": hash_seed,
                },
            )
            prepared = tmp_path / f"hash{hash_seed}.jsonl.prepared.jsonl"
            written.append(prepared.read_bytes())
        assert written[0] == written[1]

    def test_rejects_unknown_flavor(self, tmp_path):
        with pytest.raises(SystemExit):
            make_trace_main(
                ["--flavor", "dr99", "-n", "5", "-o", str(tmp_path / "t")]
            )


    def test_estimated_prepared_file_and_chunks_share_a_name(self, tmp_path):
        from repro.workload.chunks import ChunkedTrace

        base = ["-n", "60", "--profile", "tiny", "--yields", "estimated"]
        output = tmp_path / "t.jsonl"
        assert make_trace_main(base + ["--prepare", "-o", str(output)]) == 0
        assert make_trace_main(base + ["--chunked", str(tmp_path / "c")]) == 0
        prepared = PreparedTrace.load(tmp_path / "t.jsonl.prepared.jsonl")
        assert prepared.name == ChunkedTrace(tmp_path / "c").name
        assert prepared.name == "edr-60-estimated"


class TestClosedPipe:
    """A reader that closes stdout early (``| head``) is not an error:
    the CLI exits 0 and prints no traceback.  Block-buffered output
    small enough to fit the buffer only fails at the final flush."""

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("cli", ["make_trace", "repro-report"])
    def test_exits_zero_with_empty_stderr(self, tmp_path, cli, buffering):
        import os
        import subprocess
        import sys

        import repro

        if cli == "make_trace":
            argv = [
                "repro.workload.make_trace", "-n", "20", "--profile",
                "tiny", "--prepare", "-o", str(tmp_path / "t.jsonl"),
            ]
        else:
            from tests.obs.test_report import record_run

            argv = ["repro.obs.report", str(record_run(tmp_path, "gds"))]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m"] + argv,
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr.decode()) == (0, "")
        if cli == "make_trace":
            assert (tmp_path / "t.jsonl.prepared.jsonl").exists()


class TestRunAll:
    def test_full_report(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.common as common
        from repro.experiments.run_all import main as run_all_main

        monkeypatch.setattr(common, "cache_dir", lambda: tmp_path)
        common.clear_memo()
        output = tmp_path / "report.txt"
        code = run_all_main(
            ["-n", "400", "--profile", "tiny", "-o", str(output)]
        )
        report = output.read_text()
        out = capsys.readouterr().out
        # All nine artifacts render whatever the verdict.
        for label in (
            "Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Table 1", "Table 2",
        ):
            assert label in report
        assert "experiments in" in out
        assert code in (0, 1)
        common.clear_memo()


class TestSimulateCli:
    def test_end_to_end(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        trace_path = tmp_path / "t.jsonl"
        make_trace_main(
            [
                "-n", "60", "--profile", "tiny", "--prepare",
                "-o", str(trace_path),
            ]
        )
        capsys.readouterr()
        code = simulate_main(
            [
                "--trace", str(tmp_path / "t.jsonl.prepared.jsonl"),
                "--profile", "tiny",
                "--policy", "rate-profile",
                "--policy", "no-cache",
                "--capacity-frac", "0.4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rate-profile" in out
        assert "no-cache" in out
        assert "sequence cost" in out

    def test_bad_fraction(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        trace_path = tmp_path / "t.jsonl"
        make_trace_main(
            ["-n", "10", "--profile", "tiny", "--prepare",
             "-o", str(trace_path)]
        )
        code = simulate_main(
            [
                "--trace", str(tmp_path / "t.jsonl.prepared.jsonl"),
                "--capacity-frac", "1.5",
            ]
        )
        assert code == 2


class TestMakeTraceFlags:
    def test_mean_dwell_and_cold_prob(self, tmp_path):
        from repro.workload.templates import COLD_TEMPLATES

        output = tmp_path / "t.jsonl"
        make_trace_main(
            [
                "-n", "300", "--profile", "tiny", "--seed", "3",
                "--mean-dwell", "20", "--cold-prob", "0.2",
                "-o", str(output),
            ]
        )
        trace = Trace.load(output)
        cold = [r for r in trace if r.template in COLD_TEMPLATES]
        assert 30 <= len(cold) <= 100  # ~20% of 300

    def test_cold_prob_zero(self, tmp_path):
        from repro.workload.templates import COLD_TEMPLATES

        output = tmp_path / "t.jsonl"
        make_trace_main(
            ["-n", "100", "--profile", "tiny", "--cold-prob", "0.0",
             "-o", str(output)]
        )
        trace = Trace.load(output)
        assert not [r for r in trace if r.template in COLD_TEMPLATES]


class TestSimulateMissingTrace:
    def test_friendly_error(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        code = simulate_main(
            ["--trace", str(tmp_path / "nope.jsonl"), "--profile", "tiny"]
        )
        assert code == 2
        assert "no such trace file" in capsys.readouterr().err


class TestRunAllCoverage:
    def test_every_paper_artifact_listed(self):
        from repro.experiments.run_all import EXPERIMENTS

        labels = [label for label, _, _ in EXPERIMENTS]
        assert labels == [
            "Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Table 1", "Table 2", "Resilience",
            "Fleet",
        ]
        for _, module, _ in EXPERIMENTS:
            assert hasattr(module, "run")
            assert hasattr(module, "render")


class TestSimulateFaults:
    """The --faults / --fault-seed surface of the simulate CLI."""

    def _prepared(self, tmp_path, n=60):
        trace_path = tmp_path / "t.jsonl"
        make_trace_main(
            ["-n", str(n), "--profile", "tiny", "--prepare",
             "-o", str(trace_path)]
        )
        return str(tmp_path / "t.jsonl.prepared.jsonl")

    def _schedule_path(self, tmp_path, n=60):
        from repro.faults import FaultSchedule, FaultWindow

        schedule = FaultSchedule(
            seed=9,
            windows=(
                FaultWindow(kind="outage", server="sdss", start=n // 4,
                            end=n // 2),
                FaultWindow(
                    kind="brownout", server="sdss", start=n // 2,
                    end=n, failure_rate=0.4, cost_multiplier=2.0,
                ),
            ),
        )
        path = tmp_path / "faults.json"
        schedule.dump(path)
        return str(path)

    def test_faulted_run_reports_retry_and_availability(
        self, tmp_path, capsys
    ):
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path)
        schedule = self._schedule_path(tmp_path)
        capsys.readouterr()
        code = simulate_main(
            ["--trace", prepared, "--profile", "tiny",
             "--policy", "no-cache", "--faults", schedule]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "retry (MB)" in out
        assert "avail" in out

    def test_same_seed_reruns_identical(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path)
        schedule = self._schedule_path(tmp_path)
        outputs = []
        for _ in range(2):
            capsys.readouterr()
            code = simulate_main(
                ["--trace", prepared, "--profile", "tiny",
                 "--policy", "no-cache", "--policy", "lru",
                 "--faults", schedule, "--fault-seed", "77"]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_fault_seed_changes_totals(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path)
        schedule = self._schedule_path(tmp_path)
        outputs = []
        for seed in ("1", "2"):
            capsys.readouterr()
            simulate_main(
                ["--trace", prepared, "--profile", "tiny",
                 "--policy", "no-cache", "--faults", schedule,
                 "--fault-seed", seed]
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_fault_seed_requires_faults(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path, n=10)
        code = simulate_main(
            ["--trace", prepared, "--profile", "tiny",
             "--fault-seed", "5"]
        )
        assert code == 2
        assert "requires --faults" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", "-1", "1.5", ""])
    def test_garbage_fault_seed_exits_2(self, tmp_path, capsys, seed):
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path, n=10)
        schedule = self._schedule_path(tmp_path, n=10)
        code = simulate_main(
            ["--trace", prepared, "--profile", "tiny",
             "--faults", schedule, "--fault-seed", seed]
        )
        assert code == 2
        assert "--fault-seed" in capsys.readouterr().err

    def test_missing_schedule_file_exits_2(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path, n=10)
        code = simulate_main(
            ["--trace", prepared, "--profile", "tiny",
             "--faults", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "no such fault schedule" in capsys.readouterr().err

    def test_malformed_schedule_exits_2(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path, n=10)
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "seed": 0, "faults": [{"kind": "x"}]}')
        code = simulate_main(
            ["--trace", prepared, "--profile", "tiny",
             "--faults", str(bad)]
        )
        assert code == 2
        assert "fault" in capsys.readouterr().err.lower()

    def test_empty_schedule_matches_fault_free_output(
        self, tmp_path, capsys
    ):
        from repro.faults import FaultSchedule
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path)
        empty = tmp_path / "empty.json"
        FaultSchedule.empty(seed=4).dump(empty)
        base_args = [
            "--trace", prepared, "--profile", "tiny",
            "--policy", "rate-profile", "--policy", "no-cache",
        ]
        capsys.readouterr()
        assert simulate_main(base_args) == 0
        plain = capsys.readouterr().out
        assert simulate_main(base_args + ["--faults", str(empty)]) == 0
        faulted = capsys.readouterr().out
        assert faulted == plain

    def test_faults_with_trace_dir_writes_traces(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        prepared = self._prepared(tmp_path)
        schedule = self._schedule_path(tmp_path)
        trace_dir = tmp_path / "traces"
        code = simulate_main(
            ["--trace", prepared, "--profile", "tiny",
             "--policy", "no-cache", "--faults", schedule,
             "--trace-dir", str(trace_dir)]
        )
        assert code == 0
        assert (trace_dir / "trace-no-cache.jsonl").exists()


class TestSimulateStreamed:
    """``simulate`` over streamed sources: a generated flavor or a
    chunked trace directory, with the deterministic ``-o`` report."""

    GENERATED = [
        "--flavor", "edr", "-n", "300", "--yields", "estimated",
        "--policy", "online-by", "--capacity-frac", "0.1",
    ]

    def test_report_is_byte_identical_with_and_without_peak_ceiling(
        self, tmp_path, capsys
    ):
        from repro.sim.simulate import main as simulate_main

        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        assert simulate_main(
            self.GENERATED + ["--max-peak-mb", "200", "-o", str(first)]
        ) == 0
        assert simulate_main(self.GENERATED + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert report["trace"]["num_queries"] == 300
        policy = report["policies"]["online-by"]
        assert policy["cumulative_bytes"][-1] == policy["summary"]["total_bytes"]
        assert "tracemalloc peak" in capsys.readouterr().err

    def test_peak_over_ceiling_exits_3(self, capsys):
        from repro.sim.simulate import main as simulate_main

        assert simulate_main(self.GENERATED + ["--max-peak-mb", "0.001"]) == 3
        assert "exceeds ceiling" in capsys.readouterr().err

    def test_chunked_directory_matches_prepared_file(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        base = ["-n", "300", "--profile", "tiny"]
        make_trace_main(base + ["--prepare", "-o", str(tmp_path / "t.jsonl")])
        make_trace_main(base + ["--chunked", str(tmp_path / "chunks")])
        replay = ["--profile", "tiny", "--capacity-frac", "0.2"]
        capsys.readouterr()
        assert simulate_main(
            ["--trace", str(tmp_path / "t.jsonl.prepared.jsonl")] + replay
        ) == 0
        from_file = capsys.readouterr().out
        assert simulate_main(
            ["--trace", str(tmp_path / "chunks")] + replay
        ) == 0
        assert capsys.readouterr().out == from_file
        assert "300 queries" in from_file and "static" in from_file

    def test_trace_and_flavor_together_exit_2(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        with pytest.raises(SystemExit) as exc:
            simulate_main(
                ["--trace", str(tmp_path / "t.jsonl"), "--flavor", "edr"]
            )
        assert exc.value.code == 2

    def test_generator_options_refused_with_trace(self, tmp_path, capsys):
        from repro.sim.simulate import main as simulate_main

        code = simulate_main(["--trace", str(tmp_path / "t.jsonl"), "-n", "5"])
        assert code == 2
        assert "--flavor" in capsys.readouterr().err

    def test_static_over_generated_stream_exits_2(self, capsys):
        from repro.sim.simulate import main as simulate_main

        code = simulate_main(
            ["--flavor", "edr", "-n", "50", "--policy", "static"]
        )
        assert code == 2
        assert "object totals" in capsys.readouterr().err



class TestExperimentModuleEntry:
    """``python -m repro.experiments.<module>`` runs the module once: the
    package does not import it first (which makes runpy warn and run its
    top level twice)."""

    @staticmethod
    def _python(*args):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        return subprocess.run(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )

    @pytest.mark.parametrize("module", ["fig_resilience", "fig_fleet"])
    def test_runs_without_double_import_warning(self, module):
        done = self._python(
            "-W", "error::RuntimeWarning", "-m",
            f"repro.experiments.{module}", "--help",
        )
        assert (done.returncode, done.stderr.decode()) == (0, "")
        assert b"usage:" in done.stdout

    def test_figure_modules_load_on_first_access(self):
        done = self._python("-c", "\n".join([
            "import sys",
            "import repro.experiments as experiments",
            "assert 'repro.experiments.fig_fleet' not in sys.modules",
            "from repro.experiments import fig9_cache_size_tables",
            "assert experiments.fig_fleet.run",
            "assert all(getattr(experiments, n) for n in experiments.__all__)",
            "assert not hasattr(experiments, 'fig99_missing')",
        ]))
        assert (done.returncode, done.stderr.decode()) == (0, "")
