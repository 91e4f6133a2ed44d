"""Rules over fixture mini-projects: what only shows through callee
summaries and contracts (the retired RPR008-RPR010, now part of
RPR001/RPR002/RPR004), the lock discipline, and the CLI on a package."""

import json
from pathlib import Path

from repro.analysis.lint.cli import main

from tests.analysis.lintkit import lint

FLOW = Path(__file__).parent / "fixtures" / "flow"


def project_rule(rule_id, package):
    return lint(FLOW / package, select=[rule_id])


class TestRPR008InterproceduralUnits:
    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR001", "rpr008_bad")
        assert all(v.rule_id == "RPR001" for v in violations)
        messages = " ".join(v.message for v in violations)
        # One per laundering shape: mixed accumulator, argument into
        # a raw parameter, and the PR-1 cost/yield pairing.
        assert len(violations) == 3
        assert "raw bytes combined with weighted cost" in messages
        assert "parameter 'num_bytes'" in messages
        assert (
            "fetch_cost= is raw bytes but yield_bytes= is weighted cost"
            in messages
        )

    def test_messages_name_the_unit_source(self):
        violations = project_rule("RPR001", "rpr008_bad")
        provenance = [
            v for v in violations if "unit established by" in v.message
        ]
        assert provenance
        assert any(
            "rpr008_bad.helpers.freight" in v.message for v in provenance
        )

    def test_silent_on_corrected_twin(self):
        assert project_rule("RPR001", "rpr008_good") == []


class TestInterproceduralRegression:
    """The PR-1 mixed-units bug, laundered through helpers: the units
    live in ``helpers.py``, so ``proxy.py`` linted alone shows nothing
    and the package linted whole shows every site."""

    def test_rpr001_alone_misses_the_laundered_bug(self):
        assert (
            lint(FLOW / "rpr008_bad" / "proxy.py", select=["RPR001"])
            == []
        )

    def test_rpr008_catches_what_rpr001_cannot(self):
        violations = project_rule("RPR001", "rpr008_bad")
        pairing = [
            v for v in violations if "yield_bytes=" in v.message
        ]
        assert len(pairing) == 1


class TestRPR009NondetReachability:
    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR002", "rpr009_bad")
        assert all(v.rule_id == "RPR002" for v in violations)
        assert len(violations) == 2

    def test_transitive_chain_is_spelled_out(self):
        violations = project_rule("RPR002", "rpr009_bad")
        (transitive,) = [
            v for v in violations if "replay.py" in v.path
        ]
        assert "reaches module-global random.random()" in transitive.message
        assert "via" in transitive.message
        assert "rpr009_bad.util.jitter" in transitive.message

    def test_direct_hazard_in_workload_is_reported(self):
        # ``workload`` came into scope with the retired RPR009; the
        # merged rule reports direct sites there like anywhere else.
        violations = project_rule("RPR002", "rpr009_bad")
        (direct,) = [v for v in violations if "gen.py" in v.path]
        assert "contains time.time()" in direct.message

    def test_seams_absorb_genuine_hazards(self):
        # The good twin routes a real random.random() and time.time()
        # through uniform_draw / wall_clock_timestamp seams.
        assert project_rule("RPR002", "rpr009_good") == []


class TestRPR010SharedStateDiscipline:
    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR004", "rpr010_bad")
        assert all(v.rule_id == "RPR004" for v in violations)
        assert len(violations) == 2

    def test_unsanctioned_self_write_is_flagged(self):
        violations = project_rule("RPR004", "rpr010_bad")
        (self_write,) = [
            v for v in violations if "ledger.py" in v.path
        ]
        assert "TrafficLedger.sneak" in self_write.message
        assert "outside its sanctioned mutators" in self_write.message
        assert "record_load" in self_write.message

    def test_external_write_is_flagged(self):
        violations = project_rule("RPR004", "rpr010_bad")
        (external,) = [v for v in violations if "meddle.py" in v.path]
        assert "reaches into shared attribute" in external.message
        assert "TrafficLedger" in external.message

    def test_sanctioned_mutators_and_sibling_restore_pass(self):
        assert project_rule("RPR004", "rpr010_good") == []


class TestRPR010SpanSinkSurface:
    """The tracer's span buffer/clock/sink state is contract-owned:
    ad-hoc span-buffer writes are flagged, the sanctioned mutators
    (start/finish/record/add_sink/reset) pass."""

    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR004", "rpr010_spans_bad")
        assert all(v.rule_id == "RPR004" for v in violations)
        assert len(violations) == 2

    def test_clock_rewind_outside_mutators_is_flagged(self):
        violations = project_rule("RPR004", "rpr010_spans_bad")
        (self_write,) = [
            v for v in violations if "tracer.py" in v.path
        ]
        assert "SpanTracer.backdate" in self_write.message
        assert "'_clock'" in self_write.message
        assert "outside its sanctioned mutators" in self_write.message
        assert "record" in self_write.message

    def test_external_span_buffer_write_is_flagged(self):
        violations = project_rule("RPR004", "rpr010_spans_bad")
        (external,) = [v for v in violations if "meddle.py" in v.path]
        assert "reaches into shared attribute" in external.message
        assert "'spans_seen'" in external.message
        assert "SpanTracer" in external.message

    def test_sanctioned_span_mutators_pass(self):
        assert project_rule("RPR004", "rpr010_spans_good") == []


class TestRPR010ShapeFactsSurface:
    """The per-shape memo every plan of a shape shares is contract-
    owned: ``ShapeFacts.fill`` is the one write seam."""

    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR004", "rpr010_facts_bad")
        assert all(v.rule_id == "RPR004" for v in violations)
        assert len(violations) == 2

    def test_edit_outside_fill_is_flagged(self):
        violations = project_rule("RPR004", "rpr010_facts_bad")
        (self_write,) = [v for v in violations if "facts.py" in v.path]
        assert "ShapeFacts.forget" in self_write.message
        assert "'_facts'" in self_write.message
        assert "fill" in self_write.message

    def test_ad_hoc_memo_write_at_a_use_site_is_flagged(self):
        violations = project_rule("RPR004", "rpr010_facts_bad")
        (external,) = [
            v for v in violations if "attribute.py" in v.path
        ]
        assert "reaches into shared attribute" in external.message
        assert "ShapeFacts" in external.message

    def test_fill_seam_passes(self):
        assert project_rule("RPR004", "rpr010_facts_good") == []


class TestProjectCli:
    BAD = str(FLOW / "rpr010_bad")

    def test_project_violations_exit_one(self, capsys):
        exit_code = main([self.BAD, "--select", "RPR004"])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "RPR004" in out
        assert "2 violations" in out

    def test_json_format(self, capsys):
        exit_code = main(
            [
                self.BAD,
                "--select",
                "RPR004",
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
        assert rules == {"RPR004"}
        assert "elapsed_seconds" in document["stats"]

    def test_github_format(self, capsys):
        exit_code = main(
            [
                self.BAD,
                "--select",
                "RPR004",
                "--format",
                "github",
            ]
        )
        assert exit_code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("::error file=") for line in lines)
        assert all("title=RPR004" in line for line in lines)

    def test_ignore_drops_rule(self, capsys):
        exit_code = main(
            [
                self.BAD,
                "--select",
                "RPR004",
                "--ignore",
                "RPR004",
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
                self.BAD,
                "--select",
                "RPR004",
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
                self.BAD,
                "--select",
                "RPR004",
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


class TestRPR011LockDiscipline:
    """Service-scope code must reach lock-guarded state only through
    the DecisionGate locked_* seam: off-lock mutator calls are
    flagged here, direct guarded-attribute writes by RPR004 (no code
    outside an owner's mutators may write its state, service or not);
    routing through a locked_resolve holder passes."""

    def test_fires_on_seeded_violations(self):
        violations = project_rule("RPR011", "rpr011_bad")
        assert all(v.rule_id == "RPR011" for v in violations)
        assert len(violations) == 2

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
        # At the parent both RPR010 and RPR011 reported this line.
        (write,) = project_rule("RPR004", "rpr011_bad")
        assert "'_offset'" in write.message
        assert "BypassObjectCache" in write.message

    def test_lock_holder_seam_passes(self):
        assert project_rule("RPR011", "rpr011_good") == []

    def test_out_of_scope_modules_are_ignored(self):
        # The same shapes outside a service package are RPR004's
        # business, not RPR011's.
        assert project_rule("RPR011", "rpr010_bad") == []

    def test_service_package_is_clean_in_src(self):
        src = Path(__file__).parents[2] / "src" / "repro"
        assert lint(src, select=["RPR011"]) == []
