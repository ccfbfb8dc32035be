"""End-to-end qualitative tests: the paper's headline shapes at small scale.

These run the actual experiment pipeline (study driver → normalization) on
reduced problems and assert the *direction* of every major claim in the
paper.  The full-scale numbers live in EXPERIMENTS.md; these tests keep the
shapes from regressing.
"""

import pytest

from repro.analysis import figure_from_cluster_sweep
from repro.core.config import MachineConfig
from repro.core.contention import SharedCacheCostModel
from repro.core.study import ClusteringStudy, normalize_sweep

CFG16 = MachineConfig(n_processors=16)


def totals(sweep):
    norm = normalize_sweep(sweep)
    return {c: norm[c]["total"] for c in sweep}


@pytest.fixture(scope="module")
def ocean_sweep():
    study = ClusteringStudy("ocean", CFG16, {"n": 32, "n_vcycles": 2})
    return study.cluster_sweep(None, (1, 2, 4, 8))


@pytest.fixture(scope="module")
def lu_sweep():
    study = ClusteringStudy("lu", CFG16, {"n": 128, "block": 16})
    return study.cluster_sweep(None, (1, 2, 4, 8))


class TestFigure2Shapes:
    def test_ocean_communication_captured(self, ocean_sweep):
        """Ocean: clustering halves inter-cluster load stall per doubling."""
        norm = normalize_sweep(ocean_sweep)
        assert norm[2]["load"] < 0.75 * norm[1]["load"]
        assert norm[4]["load"] < 0.75 * norm[2]["load"]
        assert norm[8]["load"] < 0.80 * norm[4]["load"]

    def test_ocean_execution_improves(self, ocean_sweep):
        t = totals(ocean_sweep)
        assert t[8] < t[1]

    def test_lu_nearly_flat(self, lu_sweep):
        """LU: clustering barely helps (low communication volume)."""
        t = totals(lu_sweep)
        assert t[8] > 80.0  # within ~20% of the 1p time even at small scale

    def test_lu_merge_replaces_load(self, lu_sweep):
        """Paper §4: LU's 2p load-stall savings reappear as merge stall
        (cluster mates touch the diagonal block at the same time)."""
        norm = normalize_sweep(lu_sweep)
        assert norm[2]["merge"] > norm[1]["merge"]
        assert norm[2]["load"] < norm[1]["load"]

    def test_radix_merge_replaces_load(self):
        """Paper §4: Radix's shared histograms show the same late-prefetch
        signature — merge time appears as load time falls."""
        study = ClusteringStudy("radix", CFG16, {"n_keys": 8192, "radix": 64})
        norm = normalize_sweep(study.cluster_sweep(None, (1, 2)))
        assert norm[2]["merge"] > norm[1]["merge"]
        assert norm[2]["load"] < norm[1]["load"]

    def test_fft_benefit_bounded_by_topology(self):
        """FFT all-to-all: clustering removes at most (C−1)/(P−1) of the
        communication, so the 4-way bar stays close to 100."""
        study = ClusteringStudy("fft", CFG16, {"n_points": 4096})
        sweep = study.cluster_sweep(None, (1, 4))
        t = totals(sweep)
        assert t[4] > 85.0

    def test_mp3d_gains_most_of_unstructured(self):
        """MP3D: small relative communication reduction but large absolute
        gain because communication dominates."""
        study = ClusteringStudy("mp3d", CFG16,
                                {"n_particles": 4000, "n_steps": 2})
        sweep = study.cluster_sweep(None, (1, 8))
        t = totals(sweep)
        assert t[8] < 97.0


class TestFinitecapacityShapes:
    def test_barnes_overlap_at_small_caches(self):
        """Figure 6 shape: clustering helps far more at small caches than
        at infinite ones (working-set overlap)."""
        study = ClusteringStudy("barnes", CFG16,
                                {"n_particles": 512, "n_steps": 1})
        small = totals(study.cluster_sweep(1, (1, 8)))
        inf = totals(study.cluster_sweep(None, (1, 8)))
        gain_small = 100.0 - small[8]
        gain_inf = 100.0 - inf[8]
        assert gain_small > gain_inf

    def test_capacity_misses_vanish_when_overlapped_ws_fits(self):
        """Steep drop when the overlapped working set suddenly fits."""
        from repro.core.metrics import MissCause
        study = ClusteringStudy("fmm", CFG16,
                                {"n_particles": 512, "levels": 3,
                                 "n_steps": 1})
        solo = study.run_point(1, 1.0)
        clustered = study.run_point(8, 1.0)
        cap_solo = solo.result.misses.by_cause[MissCause.CAPACITY]
        cap_clust = clustered.result.misses.by_cause[MissCause.CAPACITY]
        assert cap_clust < cap_solo

    def test_disjoint_working_sets_show_no_overlap_benefit(self):
        """Paper §5: structured codes with disjoint partitions (LU) show
        virtually no working-set advantage — capacity misses per processor
        do not collapse under clustering."""
        from repro.core.metrics import MissCause
        study = ClusteringStudy("lu", CFG16, {"n": 64, "block": 16})
        solo = study.run_point(1, 0.5)
        clustered = study.run_point(4, 0.5)
        cap_solo = solo.result.misses.by_cause[MissCause.CAPACITY]
        cap_clust = clustered.result.misses.by_cause[MissCause.CAPACITY]
        # no steep collapse: clustered capacity misses stay a substantial
        # fraction (they drop a little from shared diagonal blocks)
        assert cap_clust > 0.4 * cap_solo

    @pytest.mark.parametrize("app, kwargs", [
        ("barnes", {"n_particles": 512, "n_steps": 1}),
        ("ocean", {"n": 32, "n_vcycles": 2})])
    def test_limited_associativity_only_adds_misses(self, app, kwargs):
        """E-X1 (paper §7): a direct-mapped shared cache suffers
        destructive interference between cluster mates — it can cost the
        8-way cluster time against the fully associative cache the paper
        simulates, never buy it any."""
        t8 = {assoc: ClusteringStudy(app, CFG16.with_associativity(assoc),
                                     kwargs).run_point(8, 1.0).execution_time
              for assoc in (1, None)}
        assert t8[1] >= 0.98 * t8[None]


class TestSection6Shapes:
    def test_infinite_cache_clustering_hurts_lu(self):
        """Table 7: with infinite caches the shared-cache costs exceed
        LU's communication benefit for most cluster sizes."""
        model = SharedCacheCostModel()
        res = model.evaluate("lu", None, CFG16, (1, 2, 4),
                             app_kwargs={"n": 128, "block": 16})
        assert res.relative_time[2] > 0.97
        assert res.cost_factor[4] > res.cost_factor[2] > 1.0

    def test_small_cache_working_set_offsets_costs(self):
        """Table 6: at small caches the overlap benefit more than pays
        the shared-cache cost for the working-set apps — the 8-way entry
        ends below 1.0 with the costs charged (barnes and radix are the
        two rows EXPERIMENTS.md's third conclusion rests on)."""
        model = SharedCacheCostModel()
        for app, kwargs in (("barnes", {"n_particles": 512, "n_steps": 1}),
                            ("radix", {"n_keys": 8192, "radix": 64})):
            res = model.evaluate(app, 1.0, CFG16, (1, 8), app_kwargs=kwargs)
            assert res.relative_time[8] < 1.0, app


class TestFigure3Shape:
    def test_small_problem_benefits_more(self):
        """Figure 3: the small Ocean problem gains more from clustering
        than the large one."""
        big = ClusteringStudy("ocean", CFG16, {"n": 64, "n_vcycles": 2})
        small = ClusteringStudy("ocean", CFG16, {"n": 32, "n_vcycles": 2})
        t_big = totals(big.cluster_sweep(None, (1, 4)))
        t_small = totals(small.cluster_sweep(None, (1, 4, 8)))
        assert (100 - t_small[4]) > (100 - t_big[4]) - 2.0
        assert t_small[8] < t_small[4] < 100.0


class TestRenderPipeline:
    def test_cluster_figure_roundtrip(self, ocean_sweep):
        fig = figure_from_cluster_sweep("t", ocean_sweep)
        bars = fig.groups[0].bars
        assert bars[0].total == pytest.approx(100.0)
        assert bars[-1].total < bars[0].total
