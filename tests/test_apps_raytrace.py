"""Raytrace application tests: intersection math, octree, image sanity."""

import numpy as np
import pytest

from repro.apps.raytrace import RaytraceApp, _Node
from repro.core.config import MachineConfig


@pytest.fixture
def cfg():
    return MachineConfig(n_processors=4, cluster_size=2,
                         cache_kb_per_processor=16)


class TestGeometry:
    def test_ray_sphere_direct_hit(self, cfg):
        app = RaytraceApp(cfg, width=4, height=4, n_spheres=1)
        app.ensure_setup()
        app.centers[0] = (0.5, 0.5, 0.5)
        app.radii[0] = 0.1
        t = app._ray_spheres(np.array([[0.5, 0.5, -0.5]]),
                             np.array([[0.0, 0.0, 1.0]]), np.array([0]))
        assert t[0] == pytest.approx(0.9, abs=1e-9)

    def test_ray_sphere_miss(self, cfg):
        app = RaytraceApp(cfg, width=4, height=4, n_spheres=1)
        app.ensure_setup()
        app.centers[0] = (0.5, 0.5, 0.5)
        app.radii[0] = 0.1
        assert app._ray_spheres(np.array([[0.0, 0.0, -0.5]]),
                                np.array([[0.0, 0.0, 1.0]]),
                                np.array([0]))[0] == np.inf

    def test_octree_holds_all_spheres(self, cfg):
        app = RaytraceApp(cfg, width=4, height=4, n_spheres=16)
        app.ensure_setup()
        in_leaves = set()
        for node in app.nodes:
            if node.children is None:
                in_leaves.update(node.spheres)
        assert in_leaves == set(range(16))

    @pytest.mark.parametrize("n_spheres", [16, 32, 160])
    def test_octree_equals_the_scalar_rule(self, cfg, n_spheres):
        """The vectorised build makes exactly the nodes of the one-sphere-
        at-a-time rule: same centers, sizes, sphere lists and tree."""
        def subdivide(app, node, depth, out):
            if (len(node.spheres) <= app.leaf_spheres
                    or depth >= app.max_tree_depth):
                return
            node.children = []
            for o in range(8):
                off = np.array([1 if o & 4 else -1, 1 if o & 2 else -1,
                                1 if o & 1 else -1], dtype=float)
                child = _Node(node.center + off * node.half / 2,
                              node.half / 2)
                for s in node.spheres:
                    d = np.abs(app.centers[s] - child.center)
                    if np.all(d <= child.half + app.radii[s]):
                        child.spheres.append(s)
                out.append(child)
                node.children.append(child)
            node.spheres = []
            for child in node.children:
                subdivide(app, child, depth + 1, out)

        def shape(nodes):
            index = {id(n): i for i, n in enumerate(nodes)}
            return [(n.center.tolist(), n.half, n.spheres,
                     None if n.children is None
                     else [index[id(c)] for c in n.children])
                    for n in nodes]

        app = RaytraceApp(cfg, width=4, height=4, n_spheres=n_spheres)
        app.ensure_setup()
        root = _Node(np.full(3, 0.5), 0.5)
        root.spheres = list(range(n_spheres))
        want = [root]
        subdivide(app, root, 0, want)
        assert len(want) > 1
        assert shape(app.nodes) == shape(want)

    def test_octree_root_is_unit_cube(self, cfg):
        app = RaytraceApp(cfg, width=4, height=4, n_spheres=4)
        app.ensure_setup()
        root = app.nodes[0]
        assert np.allclose(root.center, 0.5)
        assert root.half == 0.5


class TestRendering:
    def test_image_deterministic(self, cfg):
        imgs = []
        for _ in range(2):
            app = RaytraceApp(cfg, width=16, height=16, n_spheres=8)
            app.run()
            imgs.append(app.image.copy())
        assert np.array_equal(imgs[0], imgs[1])

    def test_image_independent_of_clustering(self):
        imgs = []
        for cluster in (1, 4):
            cfg = MachineConfig(n_processors=4, cluster_size=cluster)
            app = RaytraceApp(cfg, width=16, height=16, n_spheres=8)
            app.run()
            imgs.append(app.image.copy())
        assert np.array_equal(imgs[0], imgs[1])

    def test_some_rays_hit_and_some_miss(self, cfg):
        app = RaytraceApp(cfg, width=16, height=16, n_spheres=8)
        app.run()
        assert app.rays_hit > 0
        assert app.rays_hit < app.rays_cast

    def test_counts_and_image_are_per_rendering(self, cfg):
        """One primary ray per pixel, however often the instance renders
        and whichever way: a recording run, a generator run, or the
        engine-free drain of ``compiled_program()``."""
        app = RaytraceApp(cfg, width=16, height=16, n_spheres=8)
        app.run_recorded()
        first = (app.rays_cast, app.rays_hit, app.image.copy())
        assert first[0] == 16 * 16
        for render in (app.run, app.compiled_program):
            app.image[:] = -1.0
            render()
            assert (app.rays_cast, app.rays_hit) == first[:2]
            assert np.array_equal(app.image, first[2])

    def test_shading_bounded(self, cfg):
        app = RaytraceApp(cfg, width=16, height=16, n_spheres=8)
        app.run()
        assert app.image.min() >= 0.0
        assert app.image.max() <= 1.0

    def test_reflections_change_image(self, cfg):
        a = RaytraceApp(cfg, width=16, height=16, n_spheres=16, max_depth=1)
        b = RaytraceApp(cfg, width=16, height=16, n_spheres=16, max_depth=3)
        a.run(), b.run()
        assert not np.array_equal(a.image, b.image)


class TestStructure:
    def test_image_must_tile(self):
        cfg = MachineConfig(n_processors=64)
        with pytest.raises(ValueError):
            RaytraceApp(cfg, width=30, height=30)

    def test_pixel_tiles_disjoint_and_complete(self, cfg):
        app = RaytraceApp(cfg, width=8, height=8, n_spheres=4)
        elems = {app._pixel_elem(y, x) for y in range(8) for x in range(8)}
        assert elems == set(range(64))

    def test_scene_pages_interleaved(self, cfg):
        app = RaytraceApp(cfg, width=8, height=8, n_spheres=64)
        app.ensure_setup()
        pages = range(app.rspheres.base // cfg.page_size,
                      (app.rspheres.end - 1) // cfg.page_size + 1)
        homes = [app.allocator.bound_home(p) for p in pages]
        assert None not in homes

    def test_scene_mostly_read_only(self, cfg):
        """The scene is read-only; the only coherence traffic comes from
        the tile queue head and pixel false sharing, which must stay a
        small fraction of all misses (paper: 'communication volume ...
        is small')."""
        from repro.core.metrics import MissCause
        app = RaytraceApp(cfg, width=16, height=16, n_spheres=8)
        res = app.run()
        coher = res.misses.by_cause[MissCause.COHERENCE]
        # bound: every queue grab + every falsely shared pixel line could
        # miss coherently, but the read-only scene itself never does
        n_tiles = (16 // app.queue_tile) ** 2
        pixel_lines = 16 * 16 * 8 // cfg.line_size
        assert coher <= 2 * (n_tiles + cfg.n_processors) + pixel_lines

    def test_dynamic_queue_balances_load(self, cfg):
        """Task stealing keeps barrier sync time a modest share."""
        app = RaytraceApp(cfg, width=16, height=16, n_spheres=8)
        res = app.run()
        assert res.breakdown.fractions()["sync"] < 0.35
