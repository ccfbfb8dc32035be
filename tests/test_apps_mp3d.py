"""MP3D application tests: conservation laws + unstructured sharing."""

import numpy as np
import pytest

from repro.apps.mp3d import MP3DApp
from repro.core.config import MachineConfig


@pytest.fixture
def cfg():
    return MachineConfig(n_processors=8, cluster_size=2,
                         cache_kb_per_processor=4)


class TestNumerics:
    def test_particles_stay_in_domain(self, cfg):
        app = MP3DApp(cfg, n_particles=500, n_steps=4)
        app.run()
        assert app.pos.min() >= 0.0
        assert app.pos.max() <= 1.0

    def test_cell_counts_conserved(self, cfg):
        app = MP3DApp(cfg, n_particles=500, n_steps=3)
        app.run()
        assert app.total_count() == pytest.approx(500 * 3)

    def test_energy_conserved_by_collisions(self, cfg):
        app = MP3DApp(cfg, n_particles=400, n_steps=3, collide_prob=0.5)
        app.ensure_setup()
        e0 = app.kinetic_energy()
        app.run()
        # wall reflections and speed-preserving scattering conserve KE
        assert app.kinetic_energy() == pytest.approx(e0, rel=1e-9)

    def test_no_collisions_is_ballistic(self, cfg):
        app = MP3DApp(cfg, n_particles=100, n_steps=1, collide_prob=0.0)
        app.ensure_setup()
        p0 = app.pos.copy()
        v0 = app.vel.copy()
        app.run()
        # particles that did not hit a wall moved by exactly dt*v
        moved = p0 + 0.05 * v0
        inside = np.all((moved > 0) & (moved < 1), axis=1)
        assert np.allclose(app.pos[inside], moved[inside])


class TestStructure:
    def test_requires_enough_particles(self):
        cfg = MachineConfig(n_processors=64)
        with pytest.raises(ValueError):
            MP3DApp(cfg, n_particles=10)

    def test_cell_of_in_range(self, cfg):
        app = MP3DApp(cfg, n_particles=100, cells_per_side=4)
        app.ensure_setup()
        cells = app.cells_of(app.pos)
        assert cells.shape == (100,)
        assert 0 <= cells.min() and cells.max() < 64

    def test_unstructured_readwrite_sharing(self, cfg):
        """Space cells are written by many clusters: coherence misses and
        upgrades must appear (the paper's communication stress test)."""
        from repro.core.metrics import MissCause
        app = MP3DApp(cfg, n_particles=800, n_steps=3)
        res = app.run()
        assert res.misses.by_cause[MissCause.COHERENCE] > 0
        assert res.misses.upgrade_misses > 0

    def test_communication_dominates_at_no_clustering(self, cfg):
        """Load-stall share should be substantial — MP3D is the paper's
        high-communication outlier."""
        app = MP3DApp(cfg, n_particles=800, n_steps=3)
        res = app.run()
        fr = res.breakdown.fractions()
        assert fr["load"] > 0.2

    def test_clustering_helps_somewhat(self):
        times = {}
        for cluster in (1, 8):
            cfg = MachineConfig(n_processors=8, cluster_size=cluster)
            app = MP3DApp(cfg, n_particles=800, n_steps=3)
            times[cluster] = app.run().execution_time
        assert times[8] < times[1]
