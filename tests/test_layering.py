"""The structural lint: clean on the real tree, loud on an upward import
and on each rule's derived mutation.  ``tests/`` is searched, so this
file reads every retired name from the rule table and spells none."""

import re
import sys
from dataclasses import replace
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"
SRC = Path(__file__).parent.parent / "src"
sys.path.insert(0, str(TOOLS))

import check_layering  # noqa: E402  (path set up above)
from check_layering import RULES  # noqa: E402

REACHED = next(rule for rule in RULES if rule.callers)


class TestRankMap:
    def test_longest_prefix_wins(self):
        # the foundation modules rank below the rest of repro.core
        assert check_layering.rank_of("repro.core.config") == 0
        assert check_layering.rank_of("repro.core.metrics") == 0
        assert check_layering.rank_of("repro.core.executor") == 6
        assert check_layering.rank_of("repro.core") == 6

    def test_native_sits_between_memory_and_sim(self):
        # the C kernel package is below sim (sim.nativereplay imports it)
        # and above memory (its driver writes memory state back)
        rank = check_layering.rank_of
        assert rank("repro.native") == 2
        assert rank("repro.native.driver") == 2
        assert rank("repro.memory.coherence") < rank("repro.native")
        assert rank("repro.native") < rank("repro.sim.nativereplay")

    def test_layer_order_matches_the_dag(self):
        rank = check_layering.rank_of
        assert rank("repro.memory.coherence") < rank("repro.sim.engine")
        assert rank("repro.sim.engine") < rank("repro.apps.base")
        assert rank("repro.apps.base") < rank("repro.runtime.session")
        assert rank("repro.runtime.session") < rank("repro.core.executor")
        assert rank("repro.core.study") < rank("repro.analysis")
        assert rank("repro.analysis") < rank("repro.cli")

    def test_service_sits_between_sweep_machinery_and_analysis(self):
        # the daemon drives the executor (core) but must stay importable
        # by analysis/cli; it may never be imported from below
        rank = check_layering.rank_of
        assert rank("repro.core.executor") < rank("repro.service.daemon")
        assert rank("repro.service") == 7
        assert rank("repro.service.daemon") < rank("repro.analysis")
        assert rank("repro.service.client") < rank("repro.cli")

    def test_non_repro_modules_are_ignored(self):
        assert check_layering.rank_of("numpy") is None
        assert check_layering.rank_of("reprographics") is None


class TestRealTree:
    def test_the_shipped_tree_is_clean(self):
        assert check_layering.check(SRC) == []

    def test_main_exits_zero_on_clean_tree(self, capsys):
        assert check_layering.main([str(SRC)]) == 0
        assert "layering OK" in capsys.readouterr().out

    def test_main_rejects_missing_root(self, capsys):
        assert check_layering.main(["no/such/dir"]) == 2


class TestInjectedViolation:
    def _tree(self, tmp_path: Path, engine_body: str) -> Path:
        """A miniature repro package with a controllable sim module."""
        root = tmp_path / "src"
        for pkg in ("repro", "repro/sim", "repro/core"):
            (root / pkg).mkdir(parents=True)
            (root / pkg / "__init__.py").write_text("")
        (root / "repro/core/study.py").write_text("X = 1\n")
        (root / "repro/sim/engine.py").write_text(engine_body)
        return root

    def test_upward_import_is_reported(self, tmp_path, capsys):
        # sim (rank 3) reaching into core.study (rank 6): a violation
        root = self._tree(tmp_path,
                          "from ..core.study import X\n")
        violations = check_layering.check(root)
        assert violations == [
            "repro.sim.engine (rank 3) imports repro.core.study (rank 6)"]
        assert check_layering.main([str(root)]) == 1
        assert "layering violation" in capsys.readouterr().err

    def test_deferred_upward_import_is_still_reported(self, tmp_path):
        root = self._tree(tmp_path,
                          "def f():\n    import repro.core.study\n")
        assert len(check_layering.check(root)) == 1

    def test_downward_and_foundation_imports_pass(self, tmp_path):
        # sim may import the rank-0 foundation slice of repro.core, but
        # only by full module path — `from ..core import config` would
        # execute repro.core's __init__ (the whole rank-5 layer)
        root = self._tree(
            tmp_path,
            "from ..core.config import Y\nimport repro.core.metrics\n")
        (root / "repro/core/config.py").write_text("Y = 2\n")
        (root / "repro/core/metrics.py").write_text("Z = 3\n")
        assert check_layering.check(root) == []

    def test_importing_a_layer_package_uses_the_package_rank(self, tmp_path):
        # `from ..core import config` is flagged: it runs repro.core's
        # __init__, which imports the sweep machinery
        root = self._tree(tmp_path, "from ..core import config\n")
        (root / "repro/core/config.py").write_text("Y = 2\n")
        assert len(check_layering.check(root)) == 1


class TestRuleTable:
    def test_tree_passes_and_every_derived_mutation_fails(self):
        tree = check_layering.read_tree(SRC.parent, check_layering.TOPS)
        assert check_layering.check_rules(tree) == []
        for rule in RULES:
            mutated, path, line = check_layering.mutate(rule, tree)
            assert any(f.startswith(f"{rule.name}: {path}:{line}: ")
                       for f in check_layering.check_rules(mutated)), rule

    def test_every_listed_name_matches_its_rule(self):
        for rule in RULES:  # a name list's names: | outside a group
            for name in re.split(r"\|(?![^(]*\))", rule.pattern):
                assert not name.isidentifier() or re.search(
                    rule.pattern, name), (rule.name, name)

    def test_a_missing_path_fails(self):
        rule = replace(RULES[0], paths="tests/gone.py")
        assert check_layering.check_rules({}, [rule]) == [
            f"{rule.name}: tests/gone.py: no such path"]

    def test_stale_bytecode_trips_no_rule(self, tmp_path):
        rule = replace(RULES[0], paths="src")
        name = next(n for n in rule.pattern.split("|") if n.isidentifier())
        pkg = tmp_path / "src" / "repro"
        (pkg / "__pycache__").mkdir(parents=True)
        (pkg / "__pycache__" / "compiled.cpython-311.pyc").write_text(name)
        (pkg / "stale.pyc").write_text(name)
        (pkg / "undecodable.bin").write_bytes(b"\xff" + name.encode())
        (pkg / "engine.py").write_text("X = 1\n")
        tree = check_layering.read_tree(tmp_path, ["src"])
        assert list(tree) == ["src/repro/engine.py"]
        assert check_layering.check_rules(tree, [rule]) == []


class TestReached:
    """The ``reached`` kind: its derived edits fail, by name and line."""

    def _failures(self, rule, example=None):
        tree = check_layering.read_tree(SRC.parent, check_layering.TOPS)
        mutated, path, line = check_layering.mutate(
            replace(rule, example=example or rule.example), tree)
        return check_layering.check_rules(mutated, [rule]), f"{path}:{line}"

    def test_a_public_function_no_caller_names_fails(self):
        failures, where = self._failures(REACHED)
        assert failures == [f"reached: {where}: unreached has no caller "
                            "outside tests"]

    def test_a_defaulted_parameter_no_caller_passes_fails(self):
        failures, where = self._failures(
            REACHED, "def called(unpassed_knob=1): pass\ncalled()")
        assert failures == [f"reached: {where}: called(unpassed_knob=) is "
                            "passed by no caller outside tests"]

    def test_a_method_named_only_by_a_same_named_local_fails(self):
        # a bare name binds a local, never a method: only ``x.shadowed``
        # or the string "shadowed" would reach it
        failures, where = self._failures(REACHED, (
            "class Probe:\n"
            "    def shadowed(self): pass\n"
            "def user():\n"
            "    shadowed = Probe()\n"
            "    return shadowed\n"
            "user()"))
        path, line = where.rsplit(":", 1)
        assert failures == [f"reached: {path}:{int(line) + 1}: "
                            "Probe.shadowed has no caller outside tests"]

    def test_super_init_passes_only_to_its_bases(self):
        # ProbeChild's super().__init__ passes ProbeBase's b, and not the
        # parameter at the same position of an unrelated constructor
        failures, where = self._failures(REACHED, (
            "class ProbeBase:\n"
            "    def __init__(self, a, b=1): pass\n"
            "class ProbeChild(ProbeBase):\n"
            "    def __init__(self): super().__init__(0, 2)\n"
            "class ProbeUnrelated:\n"
            "    def __init__(self, x, knob=1): pass\n"
            "ProbeChild()\n"
            "ProbeUnrelated(0)"))
        path, line = where.rsplit(":", 1)
        assert failures == [f"reached: {path}:{int(line) + 5}: "
                            "ProbeUnrelated.__init__(knob=) is passed by no "
                            "caller outside tests"]

    def test_an_allow_list_entry_that_names_nothing_fails(self):
        rule = replace(REACHED, allow=REACHED.allow + (
            ("Gone.method", "test oracle"), ("called(gone)", "test seam")))
        failures, _ = self._failures(rule, "def called(): pass\ncalled()")
        assert failures == ["reached: allow-list Gone.method: names nothing",
                            "reached: allow-list called(gone): names nothing"]

    def test_an_allow_list_entry_a_caller_reaches_fails(self):
        rule = replace(REACHED, allow=REACHED.allow + (
            ("called", "test probe"),))
        failures, where = self._failures(rule, "def called(): pass\ncalled()")
        assert failures == [f"reached: allow-list called: {where} has a "
                            "caller"]

    def test_the_benchmark_harness_is_a_caller(self):
        # ServiceClient.wait_ready is called from benchmarks/e2e alone
        tree = check_layering.read_tree(SRC.parent, check_layering.TOPS)
        assert check_layering.check_rules(tree, [REACHED]) == []
        unheard = replace(REACHED, callers="tools examples")
        assert any(f.endswith(": ServiceClient.wait_ready has no caller "
                              "outside tests")
                   for f in check_layering.check_rules(tree, [unheard]))
