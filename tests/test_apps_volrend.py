"""Volrend application tests: compositing, octree skipping, image sanity."""

import numpy as np
import pytest

from repro.apps.volrend import VolrendApp
from repro.core.config import MachineConfig


@pytest.fixture
def cfg():
    return MachineConfig(n_processors=4, cluster_size=2,
                         cache_kb_per_processor=16)


class TestVolume:
    def test_head_structure(self, cfg):
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        app.ensure_setup()
        n = app.nv
        # centre voxel is brain, corner is empty
        assert app.volume[n // 2, n // 2, n // 2] > 0.2
        assert app.volume[0, 0, 0] == 0.0

    def test_minmax_pyramid_consistent(self, cfg):
        app = VolrendApp(cfg, volume_side=16, width=8, height=8, block=4)
        app.ensure_setup()
        assert app.minmax[0].max() == pytest.approx(app.volume.max())
        for lo, hi in zip(app.minmax, app.minmax[1:]):
            assert hi.max() == pytest.approx(lo.max())

    def test_block_must_divide(self, cfg):
        with pytest.raises(ValueError):
            VolrendApp(cfg, volume_side=30, block=4)


class TestRendering:
    def test_octree_skipping_preserves_image(self, cfg):
        """Hierarchical skipping is an optimisation only: the composited
        intensity must equal the brute-force march."""
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        app.ensure_setup()
        for px, py in [(0, 0), (4, 4), (3, 6), (7, 2)]:
            with_tree, _ = app.march(px, py, use_octree=True)
            brute, _ = app.march(px, py, use_octree=False)
            assert with_tree == pytest.approx(brute, rel=1e-12)

    def test_octree_reduces_voxel_reads(self, cfg):
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        app.ensure_setup()
        _, t_tree = app.march(0, 0, use_octree=True)
        _, t_brute = app.march(0, 0, use_octree=False)
        voxels_tree = sum(1 for k, _ in t_tree if k == "voxel")
        voxels_brute = sum(1 for k, _ in t_brute if k == "voxel")
        assert voxels_tree < voxels_brute

    def test_centre_opaque_corner_clear(self, cfg):
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        app.run()
        h, w = app.image.shape
        assert app.image[h // 2, w // 2] > 0.1
        assert app.image[0, 0] == 0.0

    def test_drain_renders_the_image_the_run_does(self, cfg):
        """``compiled_program()`` marches every tile once with no engine;
        the image is the one a simulated run leaves behind."""
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        app.run()
        want = app.image.copy()
        app.image[:] = -1.0
        app.compiled_program()
        assert np.array_equal(app.image, want)

    def test_image_deterministic_across_clustering(self):
        imgs = []
        for cluster in (1, 4):
            cfg = MachineConfig(n_processors=4, cluster_size=cluster)
            app = VolrendApp(cfg, volume_side=16, width=8, height=8)
            app.run()
            imgs.append(app.image.copy())
        assert np.array_equal(imgs[0], imgs[1])

    def test_early_termination_bounds_opacity_work(self, cfg):
        """A ray through the centre must stop before the far face (the
        skull/brain saturate opacity)."""
        app = VolrendApp(cfg, volume_side=32, width=8, height=8)
        app.ensure_setup()
        _, trace = app.march(4, 4)
        # trilinear sampling reads 4 voxel columns per sample step
        sample_steps = sum(1 for k, _ in trace if k == "voxel") / 4
        assert sample_steps < app.nv  # terminated early


class TestStructure:
    def test_pixel_tiles_complete(self, cfg):
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        elems = {app._pixel_elem(y, x) for y in range(8) for x in range(8)}
        assert elems == set(range(64))

    def test_volume_mostly_read_only(self, cfg):
        """Coherence traffic limited to the tile queue + pixel false
        sharing — a small share of all misses."""
        from repro.core.metrics import MissCause
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        res = app.run()
        coher = res.misses.by_cause[MissCause.COHERENCE]
        assert coher < 0.3 * max(res.misses.misses, 1)

    def test_volume_pages_interleaved(self, cfg):
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        app.ensure_setup()
        first = app.rvolume.base // cfg.page_size
        homes = {app.allocator.bound_home(first + k) for k in range(4)}
        assert len(homes) > 1
