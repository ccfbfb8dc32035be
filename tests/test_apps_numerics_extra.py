"""Deeper numerical properties of the applications (hypothesis-driven where
cheap): conservation laws, nesting invariants, and seed-sweep correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.barnes import BarnesApp
from repro.apps.fft import FFTApp
from repro.apps.lu import LUApp
from repro.apps.radix import RadixApp
from repro.apps.volrend import VolrendApp
from repro.core.config import MachineConfig
from test_apps_volrend import march

CFG = MachineConfig(n_processors=4, cluster_size=2,
                    cache_kb_per_processor=16)


class TestFFTProperties:
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_matches_numpy_for_any_seed(self, seed):
        app = FFTApp(CFG, n_points=256, seed=seed)
        app.run()
        assert np.allclose(app.result(), app.reference(), atol=1e-8)

    def test_parseval(self):
        """Energy conservation: ‖X‖² = N·‖x‖²."""
        app = FFTApp(CFG, n_points=1024)
        app.run()
        lhs = float(np.sum(np.abs(app.result()) ** 2))
        rhs = 1024 * float(np.sum(np.abs(app.x_input) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_linearity_in_input_scale(self):
        a = FFTApp(CFG, n_points=256, seed=5)
        a.run()
        # scaling the input scales the output (fresh app, scaled input)
        b = FFTApp(CFG, n_points=256, seed=5)
        b.ensure_setup()
        b.x_input *= 2.0
        b.A[:] = b.x_input.reshape(b.m, b.m)
        b.run()
        assert np.allclose(b.result(), 2.0 * a.result(), atol=1e-8)


class TestLUProperties:
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=8, deadline=None)
    def test_reconstruction_for_any_seed(self, seed):
        app = LUApp(CFG, n=32, block=8, seed=seed)
        app.run()
        assert np.abs(app.reconstruct() - app.A_input).max() < 1e-8

    def test_determinant_matches_numpy(self):
        app = LUApp(CFG, n=24, block=8)
        app.run()
        # det(A) = prod(diag(U)) for unit-lower LU
        sign_ref, logdet_ref = np.linalg.slogdet(app.A_input)
        diag = np.diag(app.A)
        assert np.sign(np.prod(np.sign(diag))) == sign_ref
        assert np.sum(np.log(np.abs(diag))) == pytest.approx(logdet_ref,
                                                             rel=1e-9)


class TestRadixProperties:
    @given(seed=st.integers(0, 2**20),
           radix=st.sampled_from([8, 16, 64]),
           n_digits=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_sorts_for_any_parameters(self, seed, radix, n_digits):
        app = RadixApp(CFG, n_keys=256, radix=radix, n_digits=n_digits,
                       seed=seed)
        app.run()
        assert np.array_equal(app.result(), app.reference())

    def test_output_is_permutation_of_input(self):
        app = RadixApp(CFG, n_keys=512, radix=16, n_digits=2)
        app.run()
        assert np.array_equal(np.sort(app.result()),
                              np.sort(app.key_input))


class TestBarnesProperties:
    def test_all_bodies_inside_root_bounds(self):
        app = BarnesApp(CFG, n_particles=128, n_steps=1, dt=0.0)
        app.run()
        root = app.cells[0]
        lo = np.asarray(root.center) - root.half
        hi = np.asarray(root.center) + root.half
        assert np.all(app.pos >= lo - 1e-9)
        assert np.all(app.pos <= hi + 1e-9)

    def test_cells_nested_inside_parents(self):
        app = BarnesApp(CFG, n_particles=128, n_steps=1, dt=0.0)
        app.run()
        stack = [(0, None)]
        while stack:
            ci, parent = stack.pop()
            cell = app.cells[ci]
            if parent is not None:
                pc = app.cells[parent]
                assert np.all(np.abs(np.subtract(cell.center, pc.center))
                              <= pc.half + 1e-12)
                assert cell.half == pytest.approx(pc.half / 2)
            for slot in cell.children:
                if slot is not None and slot[0] == "c":
                    stack.append((slot[1], ci))

    def test_momentum_drift_small_without_forces(self):
        """dt=0 run: velocities unchanged."""
        app = BarnesApp(CFG, n_particles=64, n_steps=1, dt=0.0)
        app.ensure_setup()
        v0 = app.vel.copy()
        app.run()
        assert np.array_equal(app.vel, v0)


class TestVolrendProperties:
    def test_minmax_levels_halve(self):
        app = VolrendApp(CFG, volume_side=16, width=8, height=8, block=2)
        app.ensure_setup()
        shapes = [a.shape[0] for a in app.minmax]
        assert shapes[0] == 8
        for a, b in zip(shapes, shapes[1:]):
            assert b == a // 2
        assert shapes[-1] == 1

    def test_intensity_nonnegative_and_bounded(self):
        app = VolrendApp(CFG, volume_side=16, width=8, height=8)
        app.run()
        assert app.image.min() >= 0.0
        assert np.isfinite(app.image).all()

    def test_opacity_cutoff_monotone_in_work(self):
        """A lower cutoff can only terminate rays earlier (fewer samples)."""
        lo = VolrendApp(CFG, volume_side=16, width=8, height=8,
                        opacity_cutoff=0.5)
        hi = VolrendApp(CFG, volume_side=16, width=8, height=8,
                        opacity_cutoff=0.99)
        lo.ensure_setup(), hi.ensure_setup()
        _, t_lo = march(lo, 4, 4)
        _, t_hi = march(hi, 4, 4)
        n_lo = sum(1 for k, _ in t_lo if k == "voxel")
        n_hi = sum(1 for k, _ in t_hi if k == "voxel")
        assert n_lo <= n_hi
