"""FMM application tests: interaction-list tiling + force accuracy."""

import numpy as np
import pytest

from repro.apps.fmm import FMMApp
from repro.core.config import MachineConfig


@pytest.fixture
def cfg():
    return MachineConfig(n_processors=8, cluster_size=2,
                         cache_kb_per_processor=16)


class TestGeometry:
    def test_box_ids_unique(self, cfg):
        app = FMMApp(cfg, n_particles=64, levels=3)
        seen = set()
        for lv in range(4):
            for i in range(1 << lv):
                for j in range(1 << lv):
                    bid = app.box_id(lv, i, j)
                    assert bid not in seen
                    seen.add(bid)
        assert len(seen) == app.n_boxes

    def test_interaction_list_well_separated(self, cfg):
        app = FMMApp(cfg, n_particles=64, levels=3)
        for (ci, cj) in app.interaction_list(3, 4, 4):
            assert max(abs(ci - 4), abs(cj - 4)) >= 2

    def test_interaction_list_inside_parent_neighbourhood(self, cfg):
        app = FMMApp(cfg, n_particles=64, levels=3)
        for (ci, cj) in app.interaction_list(3, 4, 4):
            assert abs(ci // 2 - 2) <= 1 and abs(cj // 2 - 2) <= 1

    def test_no_interaction_lists_below_level2(self, cfg):
        app = FMMApp(cfg, n_particles=64, levels=3)
        assert app.interaction_list(1, 0, 0) == []

    def test_levels_validated(self, cfg):
        with pytest.raises(ValueError):
            FMMApp(cfg, levels=1)

    def test_leaf_owner_covers_all_procs(self, cfg):
        app = FMMApp(cfg, n_particles=64, levels=3)
        owners = {app.leaf_owner(i, j) for i in range(8) for j in range(8)}
        assert owners == set(range(8))


class TestTilingCompleteness:
    def test_far_plus_near_covers_every_pair_once(self, cfg):
        """For a target particle, every other particle must contribute
        exactly once: either via exactly one interaction-list box of an
        ancestor, or via the near field."""
        app = FMMApp(cfg, n_particles=128, levels=3)
        app.ensure_setup()
        app._ensure_bins(0)
        g = 1 << app.levels
        target = 0
        ti, tj = app.leaf_of(target)
        counts = np.zeros(app.n, dtype=int)
        # near field
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ni, nj = ti + di, tj + dj
                if 0 <= ni < g and 0 <= nj < g:
                    for q in app.box_particles[ni * g + nj]:
                        if q != target:
                            counts[q] += 1
        # far field: particles inside any ilist box of any ancestor level
        i, j = ti, tj
        for level in range(app.levels, 1, -1):
            scale = 1 << level
            for (ci, cj) in app.interaction_list(level, i, j):
                for q in range(app.n):
                    qi = min(int(app.pos[q, 0] * scale), scale - 1)
                    qj = min(int(app.pos[q, 1] * scale), scale - 1)
                    if (qi, qj) == (ci, cj):
                        counts[q] += 1
            i //= 2
            j //= 2
        counts[target] = 1
        assert np.all(counts == 1)


class TestForces:
    def test_against_direct_sum(self, cfg):
        app = FMMApp(cfg, n_particles=256, levels=3, n_steps=1, dt=0.0)
        app.run()
        errs = []
        for b in range(0, 256, 5):
            ref = app.direct_acceleration(b)
            errs.append(np.linalg.norm(app.acc[b] - ref)
                        / (np.linalg.norm(ref) + 1e-12))
        assert np.median(errs) < 0.08
        assert max(errs) < 0.4

    def test_moments_conserve_mass(self, cfg):
        app = FMMApp(cfg, n_particles=128, levels=3, n_steps=1, dt=0.0)
        app.run()
        root = app.box_id(0, 0, 0)
        assert app.moments[root, 2] == pytest.approx(app.mass.sum())

    def test_update_keeps_particles_inside(self, cfg):
        app = FMMApp(cfg, n_particles=128, levels=3, n_steps=3, dt=0.05)
        app.run()
        assert app.pos.min() >= 0.0
        assert app.pos.max() <= 1.0


class TestSharing:
    def test_moment_table_read_shared(self, cfg):
        app = FMMApp(cfg, n_particles=256, levels=3, n_steps=1)
        res = app.run()
        assert res.misses.read_misses > 0
        assert res.misses.references > 256 * 3

    def test_small_working_set(self):
        """Paper Table 3: FMM's working set is small/constant — with a
        reasonable per-processor cache, capacity misses nearly vanish."""
        from repro.core.metrics import MissCause
        cfg = MachineConfig(n_processors=8, cluster_size=1,
                            cache_kb_per_processor=32)
        app = FMMApp(cfg, n_particles=256, levels=3, n_steps=1)
        res = app.run()
        assert res.misses.by_cause[MissCause.CAPACITY] < \
            0.05 * max(res.misses.misses, 1)


# ------------------------------------------------ the batched field passes


def scalar_fields(app, p):
    """The per-pair far and near fields the batch replaced: their sum, the
    boxes read and the partner bodies read."""
    g, (ti, tj), pp = 1 << app.levels, app.leaf_of(p), app.pos[p]
    far, near, boxes, partners = np.zeros(2), np.zeros(2), [], []

    def pull(acc, m, d):
        r2 = float(d @ d) + app.eps2
        acc += m * d / (r2 * np.sqrt(r2))
    i, j = ti, tj
    for level in range(app.levels, 1, -1):
        for ci, cj in app.interaction_list(level, i, j):
            bid = app.box_id(level, ci, cj)
            boxes.append(bid)
            if app.moments[bid, 2] > 0.0:
                pull(far, app.moments[bid, 2], app.moments[bid, :2] - pp)
        i, j = i // 2, j // 2
    for ni in (ti - 1, ti, ti + 1):
        for nj in (tj - 1, tj, tj + 1):
            if 0 <= ni < g and 0 <= nj < g:
                for q in app.box_particles[ni * g + nj]:
                    if q != p:
                        partners.append(q)
                        pull(near, app.mass[q], app.pos[q] - pp)
    return far + near, boxes, partners


class TestBatchedFields:
    @pytest.mark.parametrize("levels", [2, 3, 4])
    @pytest.mark.parametrize("shape", ["uniform", "clustered"])
    def test_same_bits_and_lists_as_the_scalar_fields(self, cfg, shape,
                                                       levels):
        """Every body's acceleration bytes, box list and partner list
        equal the per-pair passes'; the clustered set leaves boxes empty,
        so massless interaction boxes are read but pull nothing."""
        app = FMMApp(cfg, n_particles=200, levels=levels, n_steps=1)
        app.ensure_setup()
        rng = np.random.default_rng(levels)
        if shape == "uniform":
            app.pos[:] = rng.uniform(0.0, 1.0, (app.n, 2))
        else:
            app.pos[:] = np.clip(0.3 + 0.05 * rng.standard_normal((app.n, 2)),
                                 0.0, 1.0)
        app._ensure_bins(0)
        g = 1 << levels
        for i in range(g):
            for j in range(g):
                app._leaf_moment(i, j)
        for level in range(levels - 1, -1, -1):
            for i in range(1 << level):
                for j in range(1 << level):
                    app._internal_moment(level, i, j)
        app._ensure_fields(0)
        for p in range(app.n):
            acc, boxes, partners = scalar_fields(app, p)
            i, j = app.leaf_of(p)
            lboxes, lbodies = app.leaf_lists[i * g + j]
            assert app.acc[p].tobytes() == acc.tobytes(), p
            assert lboxes == boxes
            assert [q for q in lbodies if q != p] == partners
