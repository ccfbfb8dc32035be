"""The layering lint: clean on the real tree, loud on an upward import."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent / "tools"
SRC = Path(__file__).parent.parent / "src"
sys.path.insert(0, str(TOOLS))

import check_layering  # noqa: E402  (path set up above)


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
