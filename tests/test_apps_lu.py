"""LU application tests: real factorization + sharing structure."""

import numpy as np
import pytest

from repro.apps.lu import LUApp
from repro.core.config import MachineConfig


@pytest.fixture
def cfg():
    return MachineConfig(n_processors=4, cluster_size=2,
                         cache_kb_per_processor=16)


class TestNumerics:
    def test_factorization_reconstructs_input(self, cfg):
        app = LUApp(cfg, n=32, block=8)
        app.run()
        err = np.abs(app.reconstruct() - app.A_input).max()
        assert err < 1e-9

    def test_matches_scipy_lu_shape(self, cfg):
        """Without pivoting on a diagonally dominant matrix, L and U should
        satisfy L@U = A to machine precision (checked against numpy solve)."""
        app = LUApp(cfg, n=16, block=8)
        app.run()
        L = np.tril(app.A, -1) + np.eye(16)
        U = np.triu(app.A)
        x = np.linalg.solve(U, np.linalg.solve(L, np.ones(16)))
        ref = np.linalg.solve(app.A_input, np.ones(16))
        assert np.allclose(x, ref, rtol=1e-8)

    def test_different_seeds_different_matrices(self, cfg):
        a = LUApp(cfg, n=16, block=8, seed=1)
        b = LUApp(cfg, n=16, block=8, seed=2)
        a.setup(), b.setup()
        assert not np.allclose(a.A_input, b.A_input)

    def test_independent_of_clustering(self):
        """The numerical result must not depend on machine organisation."""
        results = []
        for cluster in (1, 2, 4):
            cfg = MachineConfig(n_processors=4, cluster_size=cluster,
                                cache_kb_per_processor=4)
            app = LUApp(cfg, n=32, block=8)
            app.run()
            results.append(app.A.copy())
        assert np.allclose(results[0], results[1])
        assert np.allclose(results[0], results[2])


class TestStructure:
    def test_block_must_divide(self, cfg):
        with pytest.raises(ValueError):
            LUApp(cfg, n=30, block=16)

    def test_owner_scatter_decomposition(self, cfg):
        app = LUApp(cfg, n=64, block=16)
        owners = {app.owner_of(i, j) for i in range(4) for j in range(4)}
        assert owners == set(range(4))  # all 4 processors own blocks

    def test_blocks_placed_at_owner_cluster(self, cfg):
        app = LUApp(cfg, n=64, block=16)
        app.ensure_setup()
        for bi in range(app.nb):
            for bj in range(app.nb):
                addr = app.matrix.element(app._block_elem(bi, bj))
                page = addr // cfg.page_size
                expected = cfg.cluster_of(app.owner_of(bi, bj))
                assert app.allocator.page_homes.get(page) == expected

    def test_diag_owner_communicates_to_row(self, cfg):
        """Perimeter updates read the diagonal block: the cluster of the
        diagonal owner must see read traffic from other clusters."""
        app = LUApp(cfg, n=64, block=16)
        res = app.run()
        assert res.misses.read_misses > 0

    def test_execution_time_positive_and_breakdown_consistent(self, cfg):
        app = LUApp(cfg, n=32, block=8)
        res = app.run()
        assert res.execution_time > 0
        for bd in res.per_processor:
            assert bd.total == res.execution_time
