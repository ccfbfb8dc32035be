"""Documentation consistency checks: the docs must track the code."""

from pathlib import Path

from repro.apps.registry import APP_NAMES

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_design_lists_every_app(self):
        text = read("DESIGN.md")
        for app in APP_NAMES:
            assert app in text, f"DESIGN.md missing {app}"

    def test_design_names_every_figure_and_table(self):
        text = read("DESIGN.md")
        for artifact in ("Figure 2", "Figure 3", "Figure 4", "Figure 5",
                         "Figure 6", "Figure 7", "Figure 8", "Table 1",
                         "Table 4", "Table 5", "Table 6", "Table 7"):
            assert artifact in text, f"DESIGN.md missing {artifact}"


class TestReadme:
    def test_readme_mentions_all_deliverables(self):
        text = read("README.md")
        for needle in ("repro.memory", "repro.sim", "repro.apps",
                       "repro.core", "repro.analysis", "examples/",
                       "benchmarks/", "EXPERIMENTS.md", "DESIGN.md"):
            assert needle in text, f"README missing {needle}"

    def test_readme_quickstart_code_runs(self):
        """The README's quickstart snippet must execute as written
        (with a smaller problem for test speed)."""
        from repro import MachineConfig, run_app, summarize
        config = MachineConfig(n_processors=4, cluster_size=2,
                               cache_kb_per_processor=16)
        result = run_app("ocean", config, n=16, n_vcycles=1)
        assert "execution time" in summarize(result).format()


class TestApplicationsDoc:
    def test_every_app_documented(self):
        text = read("docs/APPLICATIONS.md")
        for app in APP_NAMES:
            assert f"## {app}" in text, f"docs/APPLICATIONS.md missing {app}"


class TestExperimentsDoc:
    def test_every_experiment_section_present(self):
        text = read("EXPERIMENTS.md")
        for section in ("E-F2", "E-F3", "E-T1", "E-T4", "E-T5", "E-T6",
                        "E-T7", "E-WS", "E-X1", "E-X2", "E-X3"):
            assert section in text, f"EXPERIMENTS.md missing {section}"


class TestInternalsDoc:
    def test_latency_table_matches_model(self):
        from repro.core.config import LatencyModel
        text = read("docs/INTERNALS.md")
        assert str(LatencyModel.LOCAL_CLEAN) in text
        assert str(LatencyModel.REMOTE_DIRTY_THIRD_PARTY) in text
