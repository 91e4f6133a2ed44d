"""Fixture-driven tests: each rule fires on seeded violations and stays
silent on the corrected code."""

from pathlib import Path

from tests.analysis.lintkit import lint, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_id, relative):
    return lint(FIXTURES / relative, select=[rule_id])


class TestRPR001UnitMixing:
    def test_fires_on_seeded_violations(self):
        violations = run_rule("RPR001", Path("rpr001/bad.py"))
        assert all(v.rule_id == "RPR001" for v in violations)
        lines = {v.line for v in violations}
        # One per seeded construct: add, compare, augmented, flow,
        # and the PR-1 fetch_cost/yield_bytes pairing.
        assert len(violations) == 5
        assert len(lines) == 5

    def test_flags_the_pre_fix_proxy_pairing(self):
        violations = run_rule("RPR001", Path("rpr001/bad.py"))
        pairing = [v for v in violations if "yield_bytes=" in v.message]
        assert len(pairing) == 1

    def test_silent_on_corrected_code(self):
        assert run_rule("RPR001", Path("rpr001/good.py")) == []

    def test_weighted_cost_with_an_unlabelled_yield_is_flagged(self):
        # The PR-1 shape exactly: nothing says what ``share`` is, and a
        # weighted price next to it is presumed mispaired.
        source = (
            "def emit(make, federation, object_id, share):\n"
            "    return make(\n"
            "        fetch_cost=federation.fetch_cost(object_id),\n"
            "        yield_bytes=share,\n"
            "    )\n"
        )
        (violation,) = lint_source(source, Path("x.py"), ["RPR001"])
        assert "yield_bytes= is unknown" in violation.message
        raw_view = source.replace(
            "federation.fetch_cost(object_id)",
            "federation.object_size(object_id)",
        )
        assert lint_source(raw_view, Path("x.py"), ["RPR001"]) == []

    def test_closures_and_import_time_code_are_covered(self):
        source = (
            "TOTAL = LOAD_BYTES + LOAD_COST\n"
            "\n"
            "\n"
            "def outer():\n"
            "    def inner(load_bytes, load_cost):\n"
            "        return load_bytes + load_cost\n"
            "    return inner\n"
        )
        violations = lint_source(source, Path("x.py"), ["RPR001"])
        assert [v.line for v in violations] == [1, 6]


class TestRPR002Nondeterminism:
    def test_fires_on_seeded_violations(self):
        violations = run_rule("RPR002", Path("rpr002/sim/bad.py"))
        assert all(v.rule_id == "RPR002" for v in violations)
        messages = " ".join(v.message for v in violations)
        assert "random" in messages
        assert "time.time" in messages
        assert "time.perf_counter" in messages
        assert "set" in messages
        assert len(violations) == 6

    def test_silent_on_corrected_code(self):
        assert run_rule("RPR002", Path("rpr002/sim/good.py")) == []

    def test_scoped_to_core_and_sim_paths(self):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        inside = lint_source(
            source, Path("src/repro/sim/x.py"), select=["RPR002"]
        )
        outside = lint_source(
            source, Path("src/repro/reports/x.py"), select=["RPR002"]
        )
        assert len(inside) == 1
        assert outside == []

    def test_every_direct_hazard_in_one_function_is_reported(self):
        source = (
            "import random\n"
            "import time\n"
            "\n"
            "\n"
            "def f():\n"
            "    started = time.time()\n"
            "    return started + random.random()\n"
        )
        violations = lint_source(
            source, Path("src/repro/sim/x.py"), select=["RPR002"]
        )
        assert [v.line for v in violations] == [6, 7]
        assert "time.time()" in violations[0].message
        assert "random.random()" in violations[1].message

    def test_scope_is_the_union_of_both_old_rules(self):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        for package in ("core", "sim", "obs", "faults", "workload"):
            path = Path(f"src/repro/{package}/x.py")
            assert len(lint_source(source, path, ["RPR002"])) == 1

    def test_import_time_hazard_is_reported(self):
        source = "import time\n\nSTARTED = time.time()\n"
        (violation,) = lint_source(
            source, Path("src/repro/sim/x.py"), select=["RPR002"]
        )
        assert violation.line == 3
        assert "<module>" in violation.message


class TestRPR003PolicyConformance:
    def test_fires_on_seeded_violations(self):
        violations = run_rule(
            "RPR003", Path("rpr003/core/policies/bad.py")
        )
        messages = " ".join(v.message for v in violations)
        assert "RoguePolicy" in messages
        assert "IncompletePolicy" in messages
        assert "mutable default" in messages
        assert "mutates" in messages
        assert len(violations) == 4

    def test_silent_on_corrected_code(self):
        assert (
            run_rule("RPR003", Path("rpr003/core/policies/good.py")) == []
        )

    def test_scoped_to_core_policies_paths(self):
        source = "class LonePolicy:\n    pass\n"
        inside = lint_source(
            source,
            Path("src/repro/core/policies/x.py"),
            select=["RPR003"],
        )
        outside = lint_source(
            source, Path("src/repro/core/x.py"), select=["RPR003"]
        )
        assert len(inside) == 1
        assert outside == []


class TestRPR004AccountingDiscipline:
    def test_fires_on_seeded_violations(self):
        violations = run_rule("RPR004", Path("rpr004/bad.py"))
        assert all(v.rule_id == "RPR004" for v in violations)
        messages = " ".join(v.message for v in violations)
        assert "load_bytes" in messages
        assert "bypass_cost" in messages
        assert "weighted_cost" in messages
        assert len(violations) == 6

    def test_silent_on_corrected_code(self):
        assert run_rule("RPR004", Path("rpr004/good.py")) == []

    def test_accounting_field_on_a_non_owner_self_is_flagged(self):
        source = (
            "class CustomDriver:\n"
            "    def run(self):\n"
            "        self.wan_cost = 0.0\n"
            "        self.progress = 0\n"
        )
        (violation,) = lint_source(source, Path("x.py"), ["RPR004"])
        assert violation.line == 3
        assert "'wan_cost'" in violation.message

    def test_one_finding_where_two_parent_rules_overlapped(self):
        # ``ledger.load_bytes += …`` drew RPR004 *and* RPR010 at the
        # parent; one property, one rule, one finding now.
        violations = lint(FIXTURES / "flow" / "rpr010_bad")
        meddle = [v for v in violations if "meddle.py" in v.path]
        assert [v.rule_id for v in meddle] == ["RPR004"]


class TestRPR005DecisionPathScans:
    def test_fires_on_seeded_violations(self):
        violations = run_rule(
            "RPR005", Path("rpr005/core/policies/bad.py")
        )
        assert all(v.rule_id == "RPR005" for v in violations)
        messages = " ".join(v.message for v in violations)
        assert ".object_ids()" in messages
        assert "sorted(...)" in messages
        assert "min(...)" in messages
        assert "max(...)" in messages
        # decide + _choose_victim + _plan_load (2) + _make_room (2)
        # + private helper.
        assert len(violations) == 7

    def test_every_hot_method_is_covered(self):
        violations = run_rule(
            "RPR005", Path("rpr005/core/policies/bad.py")
        )
        methods = {v.message.split("(")[0] for v in violations}
        assert methods == {
            "ScanningPolicy.decide",
            "ScanningPolicy._choose_victim",
            "ScanningPolicy._plan_load",
            "ScanningCache._make_room",
            "ScanningCache._largest",
        }

    def test_silent_on_heap_based_code(self):
        assert (
            run_rule("RPR005", Path("rpr005/core/policies/good.py")) == []
        )

    def test_scoped_to_decision_layers(self):
        source = (
            "class C:\n"
            "    def decide(self, query):\n"
            "        return sorted(self.store.object_ids())\n"
        )
        in_policies = lint_source(
            source,
            Path("src/repro/core/policies/x.py"),
            select=["RPR005"],
        )
        in_object_cache = lint_source(
            source,
            Path("src/repro/core/object_cache.py"),
            select=["RPR005"],
        )
        elsewhere = lint_source(
            source, Path("src/repro/sim/x.py"), select=["RPR005"]
        )
        assert len(in_policies) == 2
        assert len(in_object_cache) == 2
        assert elsewhere == []

    def test_cold_public_methods_exempt(self):
        source = (
            "class C:\n"
            "    def describe(self):\n"
            "        return sorted(self.store.object_ids())\n"
        )
        assert (
            lint_source(
                source,
                Path("src/repro/core/policies/x.py"),
                select=["RPR005"],
            )
            == []
        )


class TestRPR006SwallowedErrors:
    def test_fires_on_seeded_violations(self):
        violations = run_rule("RPR006", Path("rpr006/federation/bad.py"))
        assert all(v.rule_id == "RPR006" for v in violations)
        messages = " ".join(v.message for v in violations)
        assert "bare except" in messages
        assert "catch-all" in messages
        assert "swallows the error" in messages
        # Three broad catches (each also swallows) + two typed
        # handlers that swallow: 3 * 2 + 2.
        assert len(violations) == 8

    def test_silent_on_corrected_code(self):
        assert run_rule("RPR006", Path("rpr006/federation/good.py")) == []

    def test_scoped_to_federation_and_faults(self):
        source = (
            "def f(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        in_federation = lint_source(
            source, Path("src/repro/federation/x.py"), select=["RPR006"]
        )
        in_faults = lint_source(
            source, Path("src/repro/faults/x.py"), select=["RPR006"]
        )
        elsewhere = lint_source(
            source, Path("src/repro/sim/x.py"), select=["RPR006"]
        )
        assert len(in_federation) == 2
        assert len(in_faults) == 2
        assert elsewhere == []

    def test_reraise_and_record_both_satisfy(self):
        reraise = (
            "def f(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except ValueError:\n"
            "        raise\n"
        )
        record = (
            "def f(self, x):\n"
            "    try:\n"
            "        return x()\n"
            "    except ValueError:\n"
            "        self.ledger.record_retry('s', 1, 1.0)\n"
            "        return None\n"
        )
        for source in (reraise, record):
            assert (
                lint_source(
                    source,
                    Path("src/repro/faults/x.py"),
                    select=["RPR006"],
                )
                == []
            )


class TestRPR007StreamingBoundedness:
    def test_fires_on_seeded_violations(self):
        violations = run_rule("RPR007", Path("rpr007/sim/bad.py"))
        assert all(v.rule_id == "RPR007" for v in violations)
        messages = " ".join(v.message for v in violations)
        assert "list(...)" in messages
        assert "tuple(...)" in messages
        assert "comprehension" in messages
        assert ".append(...)" in messages
        assert ".extend(...)" in messages
        assert "keyed entry" in messages
        # list + tuple + comprehension + append + extend + keyed dict.
        assert len(violations) == 6

    def test_silent_on_streaming_code(self):
        assert run_rule("RPR007", Path("rpr007/sim/good.py")) == []

    def test_pragma_allows_intentional_sites(self):
        bare = (
            "def f(stream):\n"
            "    out = []\n"
            "    for query in stream:\n"
            "        out.append(query)\n"
            "    return out\n"
        )
        allowed = bare.replace(
            "out.append(query)",
            "out.append(query)  "
            "# repro-lint: allow[RPR007] small-trace opt-in",
        )
        path = Path("src/repro/sim/x.py")
        assert len(lint_source(bare, path, select=["RPR007"])) == 1
        assert lint_source(allowed, path, select=["RPR007"]) == []

    def test_scoped_to_sim_and_workload(self):
        source = "def f(stream):\n    return list(stream)\n"
        in_sim = lint_source(
            source, Path("src/repro/sim/x.py"), select=["RPR007"]
        )
        in_workload = lint_source(
            source, Path("src/repro/workload/x.py"), select=["RPR007"]
        )
        elsewhere = lint_source(
            source, Path("src/repro/core/x.py"), select=["RPR007"]
        )
        assert len(in_sim) == 1
        assert len(in_workload) == 1
        assert elsewhere == []
