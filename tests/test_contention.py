"""Tests for the §6 shared-cache cost model (Tables 4-7 machinery)."""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.contention import (PAPER_TABLE5, ExpansionTable,
                                   LoadLatencyProfiler, SharedCacheCostModel,
                                   bank_conflict_probability,
                                   banks_for_cluster, conflict_table)


class TestTable4:
    """The bank-conflict model must reproduce the paper's Table 4."""

    def test_paper_values(self):
        assert bank_conflict_probability(1) == 0.0
        assert bank_conflict_probability(2, 8) == pytest.approx(0.125)
        assert bank_conflict_probability(4, 16) == pytest.approx(0.176, abs=5e-4)
        assert bank_conflict_probability(8, 32) == pytest.approx(0.199, abs=5e-4)

    def test_monte_carlo_agrees_with_closed_form(self):
        """The physical process behind the closed form: every processor
        picks a bank at random each cycle, and processor 0's reference
        collides when a cluster mate picked the same one."""
        rng = np.random.default_rng(7)
        for n in (2, 4, 8):
            m = banks_for_cluster(n)
            picks = rng.integers(0, m, size=(200_000, n))
            empirical = (picks[:, 1:] == picks[:, :1]).any(axis=1).mean()
            assert empirical == pytest.approx(
                bank_conflict_probability(n, m), abs=0.01)

    def test_default_banks_are_4n(self):
        assert banks_for_cluster(2) == 8
        assert banks_for_cluster(4) == 16
        assert banks_for_cluster(8) == 32

    def test_conflict_table_rows(self):
        rows = conflict_table()
        assert [r[0] for r in rows] == [1, 2, 4, 8]
        assert rows[0][2] == 0.0
        assert rows[3][2] == pytest.approx(0.199, abs=5e-4)

    def test_more_banks_fewer_conflicts(self):
        assert bank_conflict_probability(4, 64) < \
            bank_conflict_probability(4, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            bank_conflict_probability(2, 0)
        with pytest.raises(ValueError):
            banks_for_cluster(0)


class TestExpansionTable:
    def test_paper_rows_load(self):
        for app in ("barnes", "lu", "ocean", "radix", "volrend", "mp3d"):
            t = ExpansionTable.paper(app)
            assert t.factors[0] == 1.0

    def test_interpolation_between_integers(self):
        t = ExpansionTable((1.0, 1.1, 1.2, 1.3))
        assert t.at(1) == 1.0
        assert t.at(2.5) == pytest.approx(1.15)
        assert t.at(4) == pytest.approx(1.3)

    def test_extrapolation_beyond_4(self):
        t = ExpansionTable((1.0, 1.1, 1.2, 1.3))
        assert t.at(5) == pytest.approx(1.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExpansionTable((1.1, 1.2, 1.3, 1.4))  # baseline must be 1.0
        with pytest.raises(ValueError):
            ExpansionTable((1.0, 1.2, 1.1, 1.3))  # must be non-decreasing
        with pytest.raises(ValueError):
            ExpansionTable((1.0, 1.1, 1.2))  # need 4 entries
        with pytest.raises(ValueError):
            ExpansionTable((1.0, 1.1, 1.2, 1.3)).at(0.5)


class TestLoadLatencyProfiler:
    def test_factors_increase_with_latency(self):
        profiler = LoadLatencyProfiler(
            MachineConfig(n_processors=4),
            {"n_keys": 512, "radix": 16, "n_digits": 1})
        t = profiler.measure("radix")
        assert t.factors[0] == 1.0
        assert t.factors[1] > 1.0
        assert t.factors[3] >= t.factors[2] >= t.factors[1]

    @pytest.mark.parametrize("app, kwargs", [
        ("barnes", {"n_particles": 64, "n_steps": 1}),
        ("lu", {"n": 32, "block": 8}),
        ("ocean", {"n": 16, "n_vcycles": 1}),
        ("volrend", {"volume_side": 8, "width": 8, "height": 8, "block": 2}),
        ("mp3d", {"n_particles": 64, "n_steps": 1})])
    def test_every_table5_app_slows_monotonically(self, app, kwargs):
        """Extra load latency can only slow a run down (the measured half
        of Table 5; radix is the test above)."""
        f = LoadLatencyProfiler(MachineConfig(n_processors=4),
                                kwargs).measure(app).factors
        assert f[0] == 1.0
        assert f[3] >= f[2] >= f[1] >= 1.0


class TestCostModel:
    def test_cost_factor_baseline_is_one(self):
        model = SharedCacheCostModel()
        assert model.cost_factor("lu", 1) == pytest.approx(1.0)

    def test_cost_factor_grows_with_cluster(self):
        model = SharedCacheCostModel()
        f2 = model.cost_factor("lu", 2)
        f4 = model.cost_factor("lu", 4)
        f8 = model.cost_factor("lu", 8)
        assert 1.0 < f2 < f4 <= f8 * 1.01

    def test_paper_lu_factor_magnitude(self):
        """LU at 2-way: hit=2 cycles, C=0.125 -> factor ≈
        0.875·1.055 + 0.125·1.114 ≈ 1.062."""
        model = SharedCacheCostModel()
        assert model.cost_factor("lu", 2) == pytest.approx(1.062, abs=0.002)

    def test_unknown_app_uses_default_table(self):
        model = SharedCacheCostModel()
        f = model.cost_factor("fft", 4)
        assert f > 1.0

    def test_evaluate_produces_relative_times(self):
        model = SharedCacheCostModel()
        res = model.evaluate("radix", cache_kb=1.0,
                             base_config=MachineConfig(n_processors=4),
                             cluster_sizes=(1, 2),
                             app_kwargs={"n_keys": 512, "radix": 16,
                                         "n_digits": 1})
        assert res.relative_time[1] == pytest.approx(1.0)
        assert res.raw_time[1] > 0
        assert res.cost_factor[2] > 1.0

    def test_table5_constants_match_paper(self):
        assert PAPER_TABLE5["mp3d"][3] == 1.243
        assert PAPER_TABLE5["ocean"][1] == 1.061


class TestCostModelEdgeCases:
    def test_baseline_is_smallest_cluster_when_one_missing(self):
        model = SharedCacheCostModel()
        res = model.evaluate("radix", cache_kb=1.0,
                             base_config=MachineConfig(n_processors=4),
                             cluster_sizes=(2, 4),
                             app_kwargs={"n_keys": 512, "radix": 16,
                                         "n_digits": 1})
        # normalized to the smallest measured cluster (2)
        assert res.relative_time[2] == pytest.approx(1.0)

    def test_custom_expansion_tables(self):
        flat = ExpansionTable((1.0, 1.0, 1.0, 1.0))
        model = SharedCacheCostModel()
        model.expansion, model.default_expansion = {"lu": flat}, flat
        # with flat expansion, only relative simulated times remain
        assert model.cost_factor("lu", 8) == pytest.approx(1.0)
        assert model.cost_factor("unknown-app", 8) == pytest.approx(1.0)

    def test_default_expansion_is_mean_of_rows(self):
        model = SharedCacheCostModel()
        import numpy as np
        mean4 = np.mean([f[3] for f in PAPER_TABLE5.values()])
        assert model.default_expansion.factors[3] == pytest.approx(mean4)
