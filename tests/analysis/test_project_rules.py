"""Project-mode rules (RPR008-RPR010): fixture mini-projects, the
interprocedural regression guard, and the ``--project`` CLI surface."""

import json
from pathlib import Path

from repro.analysis.lint import lint_paths
from repro.analysis.lint.cli import main
from repro.analysis.lint.engine import lint_project

FLOW = Path(__file__).parent / "fixtures" / "flow"


def project_rule(rule_id, package):
    violations, _ = lint_project(FLOW / package, select=[rule_id])
    return violations


class TestRPR008InterproceduralUnits:
    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR008", "rpr008_bad")
        assert all(v.rule_id == "RPR008" for v in violations)
        messages = " ".join(v.message for v in violations)
        # One per laundering shape: mixed accumulator, argument into
        # a raw parameter, and the PR-1 cost/yield pairing.
        assert len(violations) == 3
        assert "helper chain" in messages
        assert "parameter 'num_bytes'" in messages
        assert "fetch_cost= received raw bytes" in messages
        assert "yield_bytes= received weighted cost" in messages

    def test_messages_name_the_unit_source(self):
        violations = project_rule("RPR008", "rpr008_bad")
        provenance = [
            v for v in violations if "unit established by" in v.message
        ]
        assert provenance
        assert any(
            "rpr008_bad.helpers.freight" in v.message for v in provenance
        )

    def test_silent_on_corrected_twin(self):
        assert project_rule("RPR008", "rpr008_good") == []


class TestInterproceduralRegression:
    """The PR-1 mixed-units bug, laundered through helpers: per-file
    RPR001 misses every site, the summary-based RPR008 catches all."""

    def test_rpr001_alone_misses_the_laundered_bug(self):
        assert (
            lint_paths([FLOW / "rpr008_bad"], select=["RPR001"]) == []
        )

    def test_rpr008_catches_what_rpr001_cannot(self):
        violations = project_rule("RPR008", "rpr008_bad")
        pairing = [
            v for v in violations if "yield_bytes=" in v.message
        ]
        assert len(pairing) == 1


class TestRPR009NondetReachability:
    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR009", "rpr009_bad")
        assert all(v.rule_id == "RPR009" for v in violations)
        assert len(violations) == 2

    def test_transitive_chain_is_spelled_out(self):
        violations = project_rule("RPR009", "rpr009_bad")
        (transitive,) = [
            v for v in violations if "replay.py" in v.path
        ]
        assert "reaches module-global random.random()" in transitive.message
        assert "via" in transitive.message
        assert "rpr009_bad.util.jitter" in transitive.message

    def test_direct_hazard_in_workload_is_reported(self):
        # ``workload`` is outside RPR002's per-file scope, so RPR009
        # owns even the *direct* clock read there.
        violations = project_rule("RPR009", "rpr009_bad")
        (direct,) = [v for v in violations if "gen.py" in v.path]
        assert "contains time.time()" in direct.message

    def test_seams_absorb_genuine_hazards(self):
        # The good twin routes a real random.random() and time.time()
        # through uniform_draw / wall_clock_timestamp seams.
        assert project_rule("RPR009", "rpr009_good") == []


class TestRPR010SharedStateDiscipline:
    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR010", "rpr010_bad")
        assert all(v.rule_id == "RPR010" for v in violations)
        assert len(violations) == 2

    def test_unsanctioned_self_write_is_flagged(self):
        violations = project_rule("RPR010", "rpr010_bad")
        (self_write,) = [
            v for v in violations if "ledger.py" in v.path
        ]
        assert "TrafficLedger.sneak" in self_write.message
        assert "outside its sanctioned mutators" in self_write.message
        assert "record_load" in self_write.message

    def test_external_write_is_flagged(self):
        violations = project_rule("RPR010", "rpr010_bad")
        (external,) = [v for v in violations if "meddle.py" in v.path]
        assert "reaches into shared attribute" in external.message
        assert "TrafficLedger" in external.message

    def test_sanctioned_mutators_and_sibling_restore_pass(self):
        assert project_rule("RPR010", "rpr010_good") == []


class TestRPR010SpanSinkSurface:
    """The tracer's span buffer/clock/sink state is contract-owned:
    ad-hoc span-buffer writes are flagged, the sanctioned mutators
    (start/finish/record/add_sink/reset) pass."""

    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR010", "rpr010_spans_bad")
        assert all(v.rule_id == "RPR010" for v in violations)
        assert len(violations) == 2

    def test_clock_rewind_outside_mutators_is_flagged(self):
        violations = project_rule("RPR010", "rpr010_spans_bad")
        (self_write,) = [
            v for v in violations if "tracer.py" in v.path
        ]
        assert "SpanTracer.backdate" in self_write.message
        assert "'_clock'" in self_write.message
        assert "outside its sanctioned mutators" in self_write.message
        assert "record" in self_write.message

    def test_external_span_buffer_write_is_flagged(self):
        violations = project_rule("RPR010", "rpr010_spans_bad")
        (external,) = [v for v in violations if "meddle.py" in v.path]
        assert "reaches into shared attribute" in external.message
        assert "'spans_seen'" in external.message
        assert "SpanTracer" in external.message

    def test_sanctioned_span_mutators_pass(self):
        assert project_rule("RPR010", "rpr010_spans_good") == []


class TestRPR010ShapeFactsSurface:
    """The per-shape memo every plan of a shape shares is contract-
    owned: ``ShapeFacts.fill`` is the one write seam."""

    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR010", "rpr010_facts_bad")
        assert all(v.rule_id == "RPR010" for v in violations)
        assert len(violations) == 2

    def test_edit_outside_fill_is_flagged(self):
        violations = project_rule("RPR010", "rpr010_facts_bad")
        (self_write,) = [v for v in violations if "facts.py" in v.path]
        assert "ShapeFacts.forget" in self_write.message
        assert "'_facts'" in self_write.message
        assert "fill" in self_write.message

    def test_ad_hoc_memo_write_at_a_use_site_is_flagged(self):
        violations = project_rule("RPR010", "rpr010_facts_bad")
        (external,) = [
            v for v in violations if "attribute.py" in v.path
        ]
        assert "reaches into shared attribute" in external.message
        assert "ShapeFacts" in external.message

    def test_fill_seam_passes(self):
        assert project_rule("RPR010", "rpr010_facts_good") == []


class TestProjectCli:
    BAD = str(FLOW / "rpr010_bad")

    def test_project_violations_exit_one(self, capsys):
        exit_code = main(["--project", self.BAD, "--select", "RPR010"])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "RPR010" in out
        assert "2 violations" in out

    def test_project_and_paths_are_mutually_exclusive(self, capsys):
        exit_code = main(["--project", self.BAD, "some/path.py"])
        assert exit_code == 2
        assert "not both" in capsys.readouterr().err

    def test_json_format(self, capsys):
        exit_code = main(
            [
                "--project",
                self.BAD,
                "--select",
                "RPR010",
                "--format",
                "json",
            ]
        )
        assert exit_code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 2
        assert document["baselined"] == 0
        assert document["stats"]["modules"] == 3
        rules = {v["rule"] for v in document["violations"]}
        assert rules == {"RPR010"}

    def test_github_format(self, capsys):
        exit_code = main(
            [
                "--project",
                self.BAD,
                "--select",
                "RPR010",
                "--format",
                "github",
            ]
        )
        assert exit_code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("::error file=") for line in lines)
        assert all("title=RPR010" in line for line in lines)

    def test_ignore_drops_rule(self, capsys):
        exit_code = main(
            [
                "--project",
                self.BAD,
                "--select",
                "RPR010",
                "--ignore",
                "RPR010",
            ]
        )
        assert exit_code == 0

    def test_unknown_ignore_exits_two(self, capsys):
        exit_code = main([self.BAD, "--ignore", "RPR999"])
        assert exit_code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_baseline_roundtrip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        exit_code = main(
            [
                "--project",
                self.BAD,
                "--select",
                "RPR010",
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        assert exit_code == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert len(payload["findings"]) == 2
        assert all(
            f["justification"] == "TODO: justify or fix"
            for f in payload["findings"]
        )
        capsys.readouterr()
        exit_code = main(
            [
                "--project",
                self.BAD,
                "--select",
                "RPR010",
                "--baseline",
                str(baseline),
            ]
        )
        assert exit_code == 0
        assert "2 baselined findings suppressed" in capsys.readouterr().out

    def test_update_baseline_requires_baseline(self, capsys):
        exit_code = main([self.BAD, "--update-baseline"])
        assert exit_code == 2
        assert "requires --baseline" in capsys.readouterr().err

    def test_cache_flag_round_trips(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        args = [
            "--project",
            self.BAD,
            "--select",
            "RPR010",
            "--cache",
            str(cache),
            "--format",
            "json",
        ]
        main(args)
        cold = json.loads(capsys.readouterr().out)
        assert cold["stats"]["cache_misses"] == cold["stats"]["modules"]
        main(args)
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"]["cache_hits"] == warm["stats"]["modules"]
        # Identical findings either way.
        assert warm["violations"] == cold["violations"]
        assert "elapsed_seconds" in warm["stats"]


class TestRPR011LockDiscipline:
    """Service-scope code must reach lock-guarded state only through
    the DecisionGate locked_* seam: off-lock mutator calls and direct
    guarded-attribute writes are flagged; routing through a
    locked_resolve holder passes."""

    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR011", "rpr011_bad")
        assert all(v.rule_id == "RPR011" for v in violations)
        assert len(violations) == 3

    def test_offlock_ledger_call_is_flagged(self):
        violations = project_rule("RPR011", "rpr011_bad")
        (ledger,) = [
            v for v in violations if "record_load" in v.message
        ]
        assert "Server.serve_one" in ledger.message
        assert "TrafficLedger" in ledger.message
        assert "locked_resolve" in ledger.message

    def test_offlock_heap_pop_is_flagged(self):
        violations = project_rule("RPR011", "rpr011_bad")
        (heap,) = [v for v in violations if "pop_min" in v.message]
        assert "VictimHeap" in heap.message

    def test_direct_guarded_write_is_flagged(self):
        violations = project_rule("RPR011", "rpr011_bad")
        (write,) = [v for v in violations if "'_offset'" in v.message]
        assert "BypassObjectCache" in write.message
        assert "DecisionGate.locked_*" in write.message

    def test_lock_holder_seam_passes(self):
        assert project_rule("RPR011", "rpr011_good") == []

    def test_out_of_scope_modules_are_ignored(self):
        # The same shapes outside a service package are RPR010's
        # business, not RPR011's.
        assert project_rule("RPR011", "rpr010_bad") == []

    def test_service_package_is_clean_in_src(self):
        src = Path(__file__).parents[2] / "src" / "repro"
        violations, _ = lint_project(src, select=["RPR011"])
        assert violations == []
