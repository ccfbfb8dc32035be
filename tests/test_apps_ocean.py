"""Ocean application tests: multigrid convergence + neighbour structure."""

import numpy as np
import pytest

from repro.apps.ocean import OceanApp
from repro.core.config import MachineConfig


@pytest.fixture
def cfg():
    return MachineConfig(n_processors=16, cluster_size=2,
                         cache_kb_per_processor=16)


class TestNumerics:
    def test_vcycles_reduce_residual(self, cfg):
        app = OceanApp(cfg, n=32, n_vcycles=3)
        app.ensure_setup()
        initial = float(np.linalg.norm(app.levels[0].f))
        app.run()
        assert app.residual_norm() < 0.5 * initial

    def test_more_cycles_converge_further(self, cfg):
        app2 = OceanApp(cfg, n=32, n_vcycles=2)
        app4 = OceanApp(cfg, n=32, n_vcycles=4)
        app2.run(), app4.run()
        assert app4.residual_norm() < app2.residual_norm()

    def test_solution_matches_direct_solve(self, cfg):
        """After enough V-cycles the iterate approaches the exact discrete
        solution (checked with a dense solve on a small grid)."""
        app = OceanApp(cfg, n=16, n_vcycles=8)
        app.run()
        n = 16
        h2 = app.levels[0].h2
        # assemble the cell-centred 5-point Laplacian (reflective ghosts:
        # a missing neighbour adds +1 to the diagonal)
        N = n * n
        A = np.zeros((N, N))
        for i in range(n):
            for j in range(n):
                k = i * n + j
                diag = 4.0
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < n and 0 <= jj < n:
                        A[k, ii * n + jj] = -1 / h2
                    else:
                        diag += 1.0
                A[k, k] = diag / h2
        exact = np.linalg.solve(A, app.levels[0].f.reshape(-1))
        err = np.abs(app.solution().reshape(-1) - exact).max()
        assert err < 0.05 * (np.abs(exact).max() + 1e-12)

    def test_result_independent_of_clustering(self):
        sols = []
        for cluster in (1, 4):
            cfg = MachineConfig(n_processors=16, cluster_size=cluster,
                                cache_kb_per_processor=4)
            app = OceanApp(cfg, n=32, n_vcycles=2)
            app.run()
            sols.append(app.solution())
        assert np.allclose(sols[0], sols[1])


class TestStructure:
    def test_levels_built_until_indivisible(self, cfg):
        app = OceanApp(cfg, n=32)
        # 16 procs -> 4x4 grid; 32,16,8,4 interiors divide; 4/4=1 row each
        assert [lvl.n for lvl in app.levels] == [32, 16, 8, 4]

    def test_unpartitionable_grid_rejected(self):
        cfg = MachineConfig(n_processors=64)
        with pytest.raises(ValueError):
            OceanApp(cfg, n=30)

    def test_subgrid_contiguous_layout(self, cfg):
        app = OceanApp(cfg, n=32)
        lvl = app.levels[0]
        # consecutive local columns are adjacent elements
        assert app._elem(lvl, 0, 1) == app._elem(lvl, 0, 0) + 1
        # next local row of same subgrid is sc elements later
        assert app._elem(lvl, 1, 0) == app._elem(lvl, 0, 0) + lvl.sc
        # crossing a subgrid column boundary jumps to another subgrid block
        assert app._elem(lvl, 0, lvl.sc) != app._elem(lvl, 0, lvl.sc - 1) + 1

    def test_partitions_placed_at_owner(self, cfg):
        # n=128 so each processor's subgrid (32x32 doubles = 8 KB) spans
        # whole pages; sub-page partitions cannot be placed separately.
        app = OceanApp(cfg, n=128)
        app.ensure_setup()
        lvl = app.levels[0]
        region = lvl.ru[0]
        # first element of processor 5's subgrid lives at cluster_of(5)
        pi, pj = app.proc_coords(5)
        addr = region.element(app._elem(lvl, pi * lvl.sr, pj * lvl.sc))
        assert app.allocator.page_homes.get(addr // cfg.page_size) == \
            cfg.cluster_of(5)

    def test_neighbour_communication_exists(self, cfg):
        app = OceanApp(cfg, n=32, n_vcycles=1)
        res = app.run()
        from repro.core.metrics import MissCause
        # boundary reads of neighbours' rows cause coherence misses after
        # the neighbours update their subgrids
        assert res.misses.by_cause[MissCause.COHERENCE] > 0

    def test_clustering_captures_neighbour_traffic(self):
        """Paper §4: doubling cluster size roughly halves Ocean's
        inter-cluster communication (row-adjacent processors cluster)."""
        stalls = {}
        for cluster in (1, 4):
            cfg = MachineConfig(n_processors=16, cluster_size=cluster)
            app = OceanApp(cfg, n=32, n_vcycles=2)
            res = app.run()
            stalls[cluster] = res.breakdown.load
        assert stalls[4] < 0.75 * stalls[1]


def subgrid_padded(u, i0, j0, sr, sc):
    """One subgrid with its halo: neighbour values inside the domain,
    reflective ghosts at the walls (the per-subgrid form the app's
    whole-level phases replaced)."""
    n = len(u)
    pad = np.zeros((sr + 2, sc + 2))
    pad[1:-1, 1:-1] = u[i0:i0 + sr, j0:j0 + sc]
    pad[0, 1:-1] = u[i0 - 1, j0:j0 + sc] if i0 > 0 else -u[i0, j0:j0 + sc]
    pad[-1, 1:-1] = (u[i0 + sr, j0:j0 + sc] if i0 + sr < n
                     else -u[i0 + sr - 1, j0:j0 + sc])
    pad[1:-1, 0] = u[i0:i0 + sr, j0 - 1] if j0 > 0 else -u[i0:i0 + sr, j0]
    pad[1:-1, -1] = (u[i0:i0 + sr, j0 + sc] if j0 + sc < n
                     else -u[i0:i0 + sr, j0 + sc - 1])
    return pad


def test_whole_level_phases_have_the_bits_of_a_pass_per_subgrid():
    """A sweep and a residual over the whole level equal, bit for bit,
    the same arithmetic done subgrid by subgrid with halos."""
    app = OceanApp(MachineConfig(n_processors=8), n=32)
    app.ensure_setup()
    lvl = app.levels[1]
    rng = np.random.default_rng(3)
    lvl.u[0][:] = rng.normal(size=lvl.u[0].shape)
    lvl.f[:] = rng.normal(size=lvl.f.shape)
    sweep, residual = np.empty_like(lvl.u[0]), np.empty_like(lvl.r)
    for pid in range(8):
        pi, pj = app.proc_coords(pid)
        i0, j0, sr, sc = pi * lvl.sr, pj * lvl.sc, lvl.sr, lvl.sc
        pad = subgrid_padded(lvl.u[0], i0, j0, sr, sc)
        block = (slice(i0, i0 + sr), slice(j0, j0 + sc))
        jac = 0.25 * (pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2]
                      + pad[1:-1, 2:] + lvl.h2 * lvl.f[block])
        sweep[block] = (1.0 - 0.8) * lvl.u[0][block] + 0.8 * jac
        residual[block] = lvl.f[block] - (
            4.0 * pad[1:-1, 1:-1] - pad[:-2, 1:-1] - pad[2:, 1:-1]
            - pad[1:-1, :-2] - pad[1:-1, 2:]) / lvl.h2
    app._sweep(lvl, 0)
    app._residual(lvl, 0)
    assert lvl.u[1].tobytes() == sweep.tobytes()
    assert lvl.r.tobytes() == residual.tobytes()
