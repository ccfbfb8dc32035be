"""Volrend application tests: compositing, octree skipping, image sanity."""

import numpy as np
import pytest

from repro.apps.volrend import VolrendApp
from repro.core.config import MachineConfig


def march(app, px, py, use_octree=True):
    """March one orthographic ray (+z) through ``app``'s volume, on its
    own: the oracle of ``VolrendApp._render``, which marches every ray
    of a row of tiles at once.  ``use_octree=False`` is the brute-force
    march octree skipping must not change.

    Returns the composited intensity and the visit trace:
    ('node', node_id) for octree tests, ('voxel', linear_index) for
    density samples.
    """
    x = (px + 0.5) / app.width
    y = (py + 0.5) / app.height
    n = app.nv
    b = app.block
    nb = n // b
    step = 1.0 / n
    opacity = 0.0
    intensity = 0.0
    trace = []
    z = step / 2
    # trilinear lattice coordinates for (x, y): fixed along a +z ray
    fx = x * n - 0.5
    fy = y * n - 0.5
    i0 = min(max(int(fx), 0), n - 2)
    j0 = min(max(int(fy), 0), n - 2)
    wx = min(max(fx - i0, 0.0), 1.0)
    wy = min(max(fy - j0, 0.0), 1.0)
    vol = app.volume
    while z < 1.0 and opacity < app.cutoff:
        i, j, k = (min(int(c * n), n - 1) for c in (x, y, z))
        if use_octree:
            bi, bj, bk = i // b, j // b, k // b
            node_id = (bi * nb + bj) * nb + bk
            trace.append(("node", node_id))
            if app.minmax[0][bi, bj, bk] <= app.threshold:
                # skip to the far face of this transparent block
                z = (bk + 1) * b * step + step / 2
                continue
        # Trilinear sample over the 8 surrounding voxels — what real
        # volume renderers do, and what gives adjacent rays their
        # *shared* working set (the 2×2 voxel columns straddle rays).
        fz = z * n - 0.5
        k0 = min(max(int(fz), 0), n - 2)
        wz = min(max(fz - k0, 0.0), 1.0)
        c00 = vol[i0, j0, k0] * (1 - wz) + vol[i0, j0, k0 + 1] * wz
        c01 = vol[i0, j0 + 1, k0] * (1 - wz) + vol[i0, j0 + 1, k0 + 1] * wz
        c10 = vol[i0 + 1, j0, k0] * (1 - wz) + vol[i0 + 1, j0, k0 + 1] * wz
        c11 = (vol[i0 + 1, j0 + 1, k0] * (1 - wz)
               + vol[i0 + 1, j0 + 1, k0 + 1] * wz)
        d = ((c00 * (1 - wy) + c01 * wy) * (1 - wx)
             + (c10 * (1 - wy) + c11 * wy) * wx)
        # one read per distinct cache line: the 4 (i, j) voxel columns
        trace.append(("voxel", (i0 * n + j0) * n + k0))
        trace.append(("voxel", (i0 * n + j0 + 1) * n + k0))
        trace.append(("voxel", ((i0 + 1) * n + j0) * n + k0))
        trace.append(("voxel", ((i0 + 1) * n + j0 + 1) * n + k0))
        if d > app.threshold:
            alpha = min(d * 0.5, 1.0)
            intensity += (1.0 - opacity) * alpha * d
            opacity += (1.0 - opacity) * alpha
        z += step
    return intensity, trace



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
            with_tree, _ = march(app, px, py, use_octree=True)
            brute, _ = march(app, px, py, use_octree=False)
            assert with_tree == pytest.approx(brute, rel=1e-12)

    def test_octree_reduces_voxel_reads(self, cfg):
        app = VolrendApp(cfg, volume_side=16, width=8, height=8)
        app.ensure_setup()
        _, t_tree = march(app, 0, 0, use_octree=True)
        _, t_brute = march(app, 0, 0, use_octree=False)
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
        _, trace = march(app, 4, 4)
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
        homes = {app.allocator.page_homes.get(first + k) for k in range(4)}
        assert len(homes) > 1
