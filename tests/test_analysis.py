"""Tests for figure/table rendering and miss-class analysis."""

import pytest

from repro.analysis import (figure_from_capacity_sweep,
                            figure_from_cluster_sweep, merge_anatomy,
                            miss_breakdown, render_ascii, render_cost_table,
                            render_miss_breakdown, render_rows,
                            render_table1, render_table4, render_table5)
from repro.core.config import MachineConfig
from repro.core.contention import ExpansionTable, SharedCacheCostModel
from repro.core.study import ClusteringStudy


@pytest.fixture(scope="module")
def sweep():
    study = ClusteringStudy("radix", MachineConfig(n_processors=8),
                            {"n_keys": 512, "radix": 16, "n_digits": 1})
    return study.cluster_sweep(cache_kb=1.0, cluster_sizes=(1, 2, 4))


@pytest.fixture(scope="module")
def capacity(sweep):
    study = ClusteringStudy("radix", MachineConfig(n_processors=8),
                            {"n_keys": 512, "radix": 16, "n_digits": 1})
    return study.capacity_sweep(cache_sizes=(1, None), cluster_sizes=(1, 2))


class TestFigures:
    def test_cluster_figure_structure(self, sweep):
        fig = figure_from_cluster_sweep("t", sweep)
        assert len(fig.groups) == 1
        assert [b.label for b in fig.groups[0].bars] == ["1p", "2p", "4p"]
        assert fig.groups[0].bars[0].total == pytest.approx(100.0)

    def test_capacity_figure_groups(self, capacity):
        fig = figure_from_capacity_sweep("t", capacity)
        assert [g.label for g in fig.groups] == ["1k", "inf"]
        for g in fig.groups:
            assert g.bars[0].total == pytest.approx(100.0)

    def test_bar_lookup(self, sweep):
        fig = figure_from_cluster_sweep("t", sweep)
        assert fig.bar("", "2p").total > 0
        with pytest.raises(KeyError):
            fig.bar("", "16p")

    def test_series(self, sweep):
        fig = figure_from_cluster_sweep("t", sweep)
        totals = fig.series()[""]
        assert len(totals) == 3
        cpu = fig.series("cpu")[""]
        assert all(v > 0 for v in cpu)

    def test_render_rows_contains_values(self, sweep):
        fig = figure_from_cluster_sweep("my title", sweep)
        text = render_rows(fig)
        assert "my title" in text
        assert "100.0" in text
        assert "1p" in text and "4p" in text

    def test_render_ascii_runs(self, sweep):
        fig = figure_from_cluster_sweep("t", sweep)
        art = render_ascii(fig)
        assert "#" in art  # cpu glyph present
        assert "1p" in art


class TestTables:
    def test_table1_text(self):
        t = render_table1()
        assert "30" in t and "150" in t and "Hit in cache" in t

    def test_table4_text(self):
        t = render_table4()
        assert "0.125" in t and "0.199" in t

    def test_table5_text(self):
        t = render_table5({"lu": ExpansionTable((1.0, 1.055, 1.114, 1.173))})
        assert "1.055" in t and "lu" in t

    def test_cost_table_text(self):
        model = SharedCacheCostModel()
        res = model.evaluate("radix", 1.0,
                             MachineConfig(n_processors=8), (1, 2),
                             {"n_keys": 512, "radix": 16, "n_digits": 1})
        text = render_cost_table([res], "Table X")
        assert "Table X" in text and "radix" in text and "1.00" in text

    def test_cost_table_empty(self):
        assert "(no results)" in render_cost_table([], "T")


class TestMissAnalysis:
    def test_breakdown_rows(self, sweep):
        rows = miss_breakdown(sweep)
        assert [r.cluster_size for r in rows] == [1, 2, 4]
        for r in rows:
            assert r.cold + r.coherence + r.capacity == r.misses

    def test_render_miss_breakdown(self, sweep):
        text = render_miss_breakdown(miss_breakdown(sweep), "misses")
        assert "misses" in text and "1p" in text

    def test_merge_anatomy(self, sweep):
        anatomy = merge_anatomy(sweep)
        for c, row in anatomy.items():
            assert row["load_plus_merge"] == pytest.approx(
                row["load"] + row["merge"])
