"""Unit tests for the :mod:`repro.analysis.flow` semantic layer:
module loading, call-graph resolution, and summaries."""

import pytest

from repro.analysis.flow import analyze_modules
from repro.analysis.flow.lattice import AbstractUnit
from repro.analysis.flow.loader import load_paths
from repro.errors import AnalysisError


def analyze_project(root):
    return analyze_modules(load_paths([root]))


def make_project(tmp_path, files, name="pkg"):
    """Materialize a tiny package on disk and return its root."""
    root = tmp_path / name
    root.mkdir()
    files = dict(files)
    files.setdefault("__init__.py", "")
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestLoader:
    def test_loads_every_module_once(self, tmp_path):
        root = make_project(
            tmp_path,
            {"a.py": "x = 1\n", "sub/__init__.py": "", "sub/b.py": "y = 2\n"},
        )
        modules = load_paths([root])
        assert set(modules) == {"pkg", "pkg.a", "pkg.sub", "pkg.sub.b"}

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            load_paths([tmp_path / "nope"])

    def test_empty_root_raises(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(AnalysisError):
            load_paths([empty])

    def test_a_module_is_named_by_its_package_chain(self, tmp_path):
        # The same name whether the run starts at the package, above
        # it, or at the file itself.
        root = make_project(
            tmp_path, {"sub/__init__.py": "", "sub/b.py": "y = 2\n"}
        )
        for start in (root, tmp_path, root / "sub" / "b.py"):
            assert "pkg.sub.b" in load_paths([start])

    def test_two_files_claiming_one_name_is_an_error(self, tmp_path):
        for directory in ("one", "two"):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "loose.py").write_text("x = 1\n")
        with pytest.raises(AnalysisError, match="duplicate module"):
            load_paths(
                [tmp_path / "one" / "loose.py", tmp_path / "two" / "loose.py"]
            )
        # Named once through two paths is the same file, not a clash.
        assert len(load_paths([tmp_path / "one", tmp_path / "one"])) == 1


class TestCallGraph:
    def test_resolves_imported_function(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "impl.py": "def core_fn():\n    return 1\n",
                "user.py": (
                    "from pkg.impl import core_fn\n"
                    "\n"
                    "def call():\n"
                    "    return core_fn()\n"
                ),
            },
        )
        analysis = analyze_project(root)
        assert analysis.callee_of("pkg.user.call", 0) == "pkg.impl.core_fn"

    def test_follows_package_reexport(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "__init__.py": "from pkg.impl import core_fn\n",
                "impl.py": "def core_fn():\n    return 1\n",
                "user.py": (
                    "from pkg import core_fn\n"
                    "\n"
                    "def call():\n"
                    "    return core_fn()\n"
                ),
            },
        )
        analysis = analyze_project(root)
        assert analysis.callee_of("pkg.user.call", 0) == "pkg.impl.core_fn"

    def test_resolves_inherited_method(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "klass.py": (
                    "class Base:\n"
                    "    def helper(self):\n"
                    "        return 1\n"
                    "\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.helper()\n"
                ),
            },
        )
        analysis = analyze_project(root)
        assert (
            analysis.callee_of("pkg.klass.Child.run", 0)
            == "pkg.klass.Base.helper"
        )
        assert (
            analysis.graph.method_of("pkg.klass", "Child", "helper")
            == "pkg.klass.Base.helper"
        )

    def test_mutual_recursion_forms_one_scc(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "cyc.py": (
                    "def ping(n):\n"
                    "    if n <= 0:\n"
                    "        return 0\n"
                    "    return pong(n - 1)\n"
                    "\n"
                    "def pong(n):\n"
                    "    return ping(n - 1)\n"
                ),
            },
        )
        analysis = analyze_project(root)
        components = [set(c) for c in analysis.graph.sccs()]
        assert {"pkg.cyc.ping", "pkg.cyc.pong"} in components

    def test_taint_propagates_through_a_cycle(self, tmp_path):
        # The fixpoint must converge on cyclic graphs, and taint
        # entering anywhere in the cycle must reach every member.
        root = make_project(
            tmp_path,
            {
                "cyc.py": (
                    "import random\n"
                    "\n"
                    "def ping(n):\n"
                    "    if n <= 0:\n"
                    "        return random.random()\n"
                    "    return pong(n - 1)\n"
                    "\n"
                    "def pong(n):\n"
                    "    return ping(n - 1)\n"
                ),
            },
        )
        analysis = analyze_project(root)
        for qualname in ("pkg.cyc.ping", "pkg.cyc.pong"):
            summary = analysis.summary(qualname)
            assert summary is not None and summary.taint is not None


class TestSummaries:
    def test_return_unit_from_annotation(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "units.py": (
                    "def size_hint(entry) -> 'RawBytes':\n"
                    "    return entry.anything\n"
                ),
            },
        )
        analysis = analyze_project(root)
        summary = analysis.summary("pkg.units.size_hint")
        assert summary.return_unit is AbstractUnit.RAW

    def test_return_unit_flows_through_helpers(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "chain.py": (
                    "def inner(entry):\n"
                    "    return entry.fetch_cost\n"
                    "\n"
                    "def outer(entry):\n"
                    "    return inner(entry)\n"
                ),
            },
        )
        analysis = analyze_project(root)
        summary = analysis.summary("pkg.chain.outer")
        assert summary.return_unit is AbstractUnit.WEIGHTED

    def test_taint_chain_names_every_hop(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "a.py": "import random\n\ndef leaf():\n    return random.random()\n",
                "b.py": "from pkg.a import leaf\n\ndef mid():\n    return leaf()\n",
                "c.py": "from pkg.b import mid\n\ndef top():\n    return mid()\n",
            },
        )
        analysis = analyze_project(root)
        chain = [qualname for qualname, _ in analysis.taint_chain("pkg.c.top")]
        assert chain == ["pkg.c.top", "pkg.b.mid", "pkg.a.leaf"]

    def test_seam_absorbs_taint(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "seam.py": (
                    "import time\n"
                    "\n"
                    "def wall_clock_timestamp():\n"
                    "    return time.time()\n"
                    "\n"
                    "def caller():\n"
                    "    return wall_clock_timestamp()\n"
                ),
            },
        )
        analysis = analyze_project(root)
        assert analysis.summary("pkg.seam.caller").taint is None

    def test_mutation_effect_is_transitive(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "led.py": (
                    "class TrafficLedger:\n"
                    "    def record_load(self, num_bytes):\n"
                    "        self.load_bytes += num_bytes\n"
                    "\n"
                    "def funnel(ledger, num_bytes):\n"
                    "    ledger.record_load(num_bytes)\n"
                ),
            },
        )
        analysis = analyze_project(root)
        assert analysis.mutates_shared("pkg.led.TrafficLedger.record_load")
        assert analysis.mutates_shared("pkg.led.funnel")
