"""Barnes application tests: octree construction, force accuracy, sharing."""

import numpy as np
import pytest

from repro.apps import barnes
from repro.apps.barnes import BarnesApp
from repro.core.config import MachineConfig
from repro.memory import make_memory_system
from repro.sim.trace import KIND_READ, TracingMemory


@pytest.fixture
def cfg():
    return MachineConfig(n_processors=8, cluster_size=2,
                         cache_kb_per_processor=16)


class TestTree:
    def test_every_body_reachable(self, cfg):
        app = BarnesApp(cfg, n_particles=128, n_steps=1, dt=0.0)
        app.run()
        found = set()
        stack = [0]
        while stack:
            ci = stack.pop()
            for slot in app.cells[ci].children:
                if slot is None:
                    continue
                if slot[0] == "c":
                    stack.append(slot[1])
                else:
                    found.add(slot[1])
        assert found == set(range(128))

    def test_root_mass_is_total_mass(self, cfg):
        app = BarnesApp(cfg, n_particles=128, n_steps=1, dt=0.0)
        app.run()
        assert app.cells[0].mass == pytest.approx(app.mass.sum())

    def test_root_com_matches(self, cfg):
        app = BarnesApp(cfg, n_particles=128, n_steps=1, dt=0.0)
        app.run()
        com = (app.mass[:, None] * app.pos).sum(axis=0) / app.mass.sum()
        assert np.allclose(app.cells[0].com, com)

    def test_tree_shape_independent_of_clustering(self):
        """The region octree is unique for a body set: the number of cells
        must not depend on which processors inserted concurrently."""
        counts = []
        for cluster in (1, 4):
            cfg = MachineConfig(n_processors=8, cluster_size=cluster)
            app = BarnesApp(cfg, n_particles=128, n_steps=1, dt=0.0)
            app.run()
            counts.append(len(app.cells))
        assert counts[0] == counts[1]

    def test_pool_exhaustion_detected(self, cfg):
        app = BarnesApp(cfg, n_particles=64, n_steps=1)
        app.max_cells = 2
        with pytest.raises(RuntimeError, match="pool"):
            app.run()


class TestForces:
    def test_against_direct_sum(self, cfg):
        app = BarnesApp(cfg, n_particles=256, n_steps=1, dt=0.0, theta=1.0)
        app.run()
        errs = []
        for b in range(0, 256, 5):
            ref = app.direct_acceleration(b)
            errs.append(np.linalg.norm(app.acc[b] - ref)
                        / (np.linalg.norm(ref) + 1e-12))
        assert np.median(errs) < 0.10
        assert max(errs) < 0.5

    def test_smaller_theta_more_accurate(self, cfg):
        def median_err(theta):
            app = BarnesApp(cfg, n_particles=128, n_steps=1, dt=0.0,
                            theta=theta)
            app.run()
            errs = [np.linalg.norm(app.acc[b] - app.direct_acceleration(b))
                    / (np.linalg.norm(app.direct_acceleration(b)) + 1e-12)
                    for b in range(0, 128, 7)]
            return float(np.median(errs))
        assert median_err(0.3) < median_err(1.5)

    def test_bodies_move_with_dt(self, cfg):
        app = BarnesApp(cfg, n_particles=64, n_steps=1, dt=0.05)
        app.ensure_setup()
        p0 = app.pos.copy()
        app.run()
        assert not np.allclose(app.pos, p0)


class TestSharing:
    def test_tree_top_read_shared(self, cfg):
        """Every processor traverses the top of the tree: the root cell's
        COM line must be read by all clusters (the overlapping working
        set)."""
        app = BarnesApp(cfg, n_particles=256, n_steps=1)
        tm = TracingMemory(make_memory_system(cfg, app.allocator))
        app.run(memory=tm)
        trace = tm.trace()
        root = app._cell_line0(0) // cfg.line_size
        readers = trace.processors[(trace.lines == root)
                                   & (trace.kinds == KIND_READ)]
        assert {cfg.cluster_of(int(p)) for p in readers} == \
            set(range(cfg.n_clusters))

    def test_locks_serialize_tree_build(self, cfg):
        app = BarnesApp(cfg, n_particles=128, n_steps=1)
        res = app.run()
        # some sync time must come from the pool/cell locks or barriers
        assert sum(bd.sync for bd in res.per_processor) > 0

    def test_working_set_overlap_under_small_caches(self):
        """Paper Figure 6: with small caches, clustering reduces capacity
        misses per processor (shared tree top cached once)."""
        from repro.core.metrics import MissCause
        caps = {}
        for cluster in (1, 8):
            cfg = MachineConfig(n_processors=8, cluster_size=cluster,
                                cache_kb_per_processor=1)
            app = BarnesApp(cfg, n_particles=512, n_steps=1)
            res = app.run()
            caps[cluster] = res.misses.by_cause[MissCause.CAPACITY]
        assert caps[8] < caps[1]


# ------------------------------------------------- the batched force walk


def scalar_force_on(app, body):
    """The per-pair walk the batch replaced: acceleration and visits."""
    p, acc, trace, stack = app.pos[body], np.zeros(3), [], [0]
    while stack:
        ci = stack.pop()
        cell = app.cells[ci]
        if cell.mass <= 0.0:
            continue
        d = cell.com - p
        r2 = float(d @ d) + app.eps2
        size = 2.0 * cell.half
        if size * size < app.theta * app.theta * r2:
            trace.append((barnes._COM, ci))
            acc += cell.mass * d / (r2 * np.sqrt(r2))
            continue
        trace.append((barnes._OPEN, ci))
        for slot in cell.children:
            if slot is not None and slot[0] == "c":
                stack.append(slot[1])
            elif slot is not None and slot[1] != body:
                trace.append((barnes._BODY, slot[1]))
                db = app.pos[slot[1]] - p
                rb2 = float(db @ db) + app.eps2
                acc += app.mass[slot[1]] * db / (rb2 * np.sqrt(rb2))
    return acc, trace


def body_set(shape, n, seed):
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        return rng.uniform(0.0, 1.0, (n, 3))
    if shape == "plummer":
        return 0.5 + 0.1 * rng.standard_normal((n, 3))
    # a loose ball plus tight knots: the octree runs far deeper there
    pos = rng.uniform(0.1, 0.9, (n, 3))
    for k in range(4):
        pos[k * 8:(k + 1) * 8] = pos[k * 8] + rng.uniform(-1e-5, 1e-5, (8, 3))
    return pos


def depth(app, ci=0):
    kids = [s[1] for s in app.cells[ci].children if s and s[0] == "c"]
    return 1 + max((depth(app, k) for k in kids), default=0)


class TestBatchedWalk:
    @pytest.mark.parametrize("batch", [7, 512])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("shape", ["uniform", "plummer", "clustered"])
    def test_same_bits_and_visit_order_as_the_scalar_walk(
            self, cfg, monkeypatch, shape, theta, batch):
        """Every body's acceleration bytes and trace equal the per-pair
        walk's, across batch edges (7) and at any depth (the clustered
        set is ≥ 12 levels deep)."""
        monkeypatch.setattr(barnes, "_BATCH", batch)
        app = BarnesApp(cfg, n_particles=160, theta=theta, n_steps=1)
        app.ensure_setup()
        app.pos[:] = body_set(shape, app.n, seed=len(shape))
        app._ensure_tree(0)
        for b in range(app.n):
            app._insert(b)
        app._ensure_forces(0)
        if shape == "clustered":
            assert depth(app) >= 12
        for b in range(app.n):
            ref_acc, ref_trace = scalar_force_on(app, b)
            assert app.acc[b].tobytes() == ref_acc.tobytes(), b
            kind, idx, first = app._visits
            visits = zip(kind[first[b]:first[b + 1]].tolist(),
                         idx[first[b]:first[b + 1]].tolist())
            assert list(visits) == ref_trace, b
