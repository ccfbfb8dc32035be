"""The batched numerics of mp3d, raytrace, volrend and radix have the bits
of the one-at-a-time rules they replaced.

Each batched form here is checked against its per-vector (or per-particle,
per-ray, per-key) form, element by element and bit by bit, signed zeros
included.  The trace pins and ``tests/golden/capture_state.json`` hold
only while these do; if a numpy or BLAS upgrade breaks one, the failure
names the form, instead of a pin moving with no explanation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import element_addrs, row_dots
from repro.apps.mp3d import MP3DApp
from repro.apps.radix import _stable_rank_within
from repro.apps.raytrace import _LIGHT, _PRIMARY, RaytraceApp, _slab_hits
from repro.apps.volrend import _NODE_DOUBLES, VolrendApp
from repro.core.config import MachineConfig
from repro.memory.address import AddressSpace, Region
from test_apps_volrend import march

#: ±0, subnormals, tiny and large magnitudes; no product overflows
finite = st.floats(-1e150, 1e150, allow_nan=False)
vec = st.tuples(finite, finite, finite)
#: the orthographic direction, signed zeros, and general vectors
direction = st.one_of(st.sampled_from([(0.0, 0.0, 1.0), (-0.0, 0.0, 1.0),
                                       (0.0, -0.0, -1.0)]), vec)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_bits(batched, per_vector, form: str) -> None:
    assert np.array_equal(bits(batched), bits(per_vector)), (
        f"{form} no longer has the bits of its per-vector form (a numpy "
        f"or BLAS change?): batched captures would not be byte-identical")


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(vec, direction), min_size=1, max_size=12))
def test_row_dots_is_the_per_vector_dot(rows):
    a = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    assert_bits(row_dots(a, b), [float(x @ y) for x, y in zip(a, b)],
                "row_dots")
    assert_bits(np.sqrt(row_dots(a, a)),
                [float(np.linalg.norm(x)) for x in a], "sqrt(row_dots(v, v))")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(vec, min_size=1, max_size=12))
def test_row_dots_of_broadcast_rows(rows):
    """Raytrace dots whole batches with one shared vector (the primary
    direction, the light) broadcast to every row."""
    a = np.array(rows)
    for v in (_PRIMARY, _LIGHT):
        assert_bits(row_dots(a, np.broadcast_to(v, a.shape)),
                    [float(x @ v) for x in a], "row_dots with broadcast rows")
        assert_bits(row_dots(-a, np.broadcast_to(v, a.shape)),
                    [float(-x @ v) for x in a], "row_dots of a negation")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(direction, vec), min_size=1, max_size=12))
def test_reflection_is_the_per_ray_reflection(rows):
    d = np.array([r[0] for r in rows])
    n = np.array([r[1] for r in rows]) * 1e-140  # keep 2·(d·n)·n finite
    assert_bits(d - (2.0 * row_dots(d, n))[:, None] * n,
                [x - 2.0 * float(x @ y) * y for x, y in zip(d, n)],
                "the batched reflection")


@settings(max_examples=200, deadline=None)
@given(r=st.lists(st.floats(0.0, 1e150), min_size=1, max_size=20))
def test_float_power_is_the_scalar_square(r):
    """``radius ** 2`` of a numpy scalar is libm's pow; an array's ``**
    2`` multiplies, which rounds differently in about 0.1% of cases."""
    r = np.array(r)
    assert_bits(np.float_power(r, 2), [x ** 2 for x in r],
                "float_power(r, 2)")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300))
def test_rng_batch_is_the_scalar_draws(seed, n):
    batch, one = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_bits(batch.random(n), [one.random() for _ in range(n)],
                "rng.random(n)")
    assert batch.random() == one.random()


# ------------------------------------------------------------ the old rules


def ray_sphere(app, orig, direction, s):
    """Raytrace's one-ray sphere test."""
    oc = orig - app.centers[s]
    b = float(oc @ direction)
    c = float(oc @ oc) - app.radii[s] ** 2
    disc = b * b - c
    if disc < 0.0:
        return None
    t = -b - np.sqrt(disc)
    if t < 1e-6:
        t = -b + np.sqrt(disc)
    return float(t) if t > 1e-6 else None


def ray_aabb(orig, inv_dir, lo, hi):
    """Raytrace's one-ray slab test on numpy scalars."""
    tmin, tmax = 0.0, np.inf
    for ax in range(3):
        o, inv = orig[ax], inv_dir[ax]
        if np.isinf(inv):
            if o < lo[ax] or o > hi[ax]:
                return False
            continue
        t1 = (lo[ax] - o) * inv
        t2 = (hi[ax] - o) * inv
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
        if tmin > tmax:
            return False
    return True


def trace(app, orig, direction, depth, visits):
    """Raytrace's one-ray recursive tracer, appending ``_visit_ops``
    codes (node ``k``: ``k``; sphere ``s``: ``len(nodes) + s``)."""
    with np.errstate(divide="ignore"):
        inv_dir = 1.0 / direction
    best_t, best_s = np.inf, -1
    stack, tested = [app.nodes[0]], set()
    while stack:
        node = stack.pop()
        visits.append(app._node_index[id(node)])
        if not ray_aabb(orig, inv_dir, node.center - node.half,
                        node.center + node.half):
            continue
        if node.children is not None:
            stack.extend(node.children)
            continue
        for s in node.spheres:
            if s in tested:
                continue
            tested.add(s)
            visits.append(len(app.nodes) + s)
            t = ray_sphere(app, orig, direction, s)
            if t is not None and t < best_t:
                best_t, best_s = t, s
    if best_s < 0:
        return 0.05
    hit = orig + best_t * direction
    normal = (hit - app.centers[best_s]) / app.radii[best_s]
    shade = max(0.0, float(-normal @ _LIGHT)) * (1.0 - app.reflect[best_s])
    if depth + 1 < app.max_depth and app.reflect[best_s] > 0.0:
        rdir = direction - 2.0 * float(direction @ normal) * normal
        shade += app.reflect[best_s] * trace(app, hit + 1e-5 * rdir, rdir,
                                             depth + 1, visits)
    return min(shade, 1.0)


def scene(seed, n_spheres, max_depth=3):
    app = RaytraceApp(MachineConfig(n_processors=4), width=16, height=16,
                      n_spheres=n_spheres, max_depth=max_depth, seed=seed)
    app.ensure_setup()
    app.begin_render()
    return app


ray_case = st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2),
                     st.floats(-0.7, 1.2), direction)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), rays=st.lists(ray_case, min_size=1,
                                                 max_size=8))
def test_slab_and_sphere_tests_are_the_one_ray_rules(seed, rays):
    app = scene(seed, 24)
    orig = np.array([r[:3] for r in rays])
    unit = np.array([r[3] for r in rays], dtype=float)
    unit[~unit.any(axis=1)] = _PRIMARY  # a ray needs a direction
    with np.errstate(divide="ignore", over="ignore"):  # ±inf: a flat axis
        inv = 1.0 / unit
    for pos in range(app._lo.shape[1]):
        lo, hi = app._lo[:, pos], app._hi[:, pos]
        got = _slab_hits(orig.T, inv.T, np.repeat(lo[:, None], len(rays), 1),
                         np.repeat(hi[:, None], len(rays), 1))
        assert got.tolist() == [ray_aabb(o, i, lo, hi)
                                for o, i in zip(orig, inv)], \
            "the batched slab test disagrees with the one-ray test"
    for s in range(app.n_spheres):
        want = [ray_sphere(app, o, d, s) for o, d in zip(orig, unit)]
        assert_bits(app._ray_spheres(orig, unit, np.full(len(rays), s)),
                    [np.inf if t is None else t for t in want],
                    "the batched sphere test")


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), n_spheres=st.integers(1, 48),
       max_depth=st.integers(0, 4))
def test_rendering_is_the_one_ray_tracer(seed, n_spheres, max_depth):
    """Every tile's ops, the image and the ray counts."""
    app = scene(seed, n_spheres, max_depth)
    want_image = np.zeros_like(app.image)
    want_ops, want_hit = [], 0
    for tile in range(app.n_tiles):
        for py, px in app.tile_pixels(tile):
            visits = []
            orig = np.array([(px + 0.5) / app.width, (py + 0.5) / app.height,
                             -0.5])
            shade = trace(app, orig, np.array([0.0, 0.0, 1.0]), 0, visits)
            want_image[py, px] = shade
            want_hit += shade > 0.05
            visits.append(app._pixel_code + app._pixel_elem(py, px))
            opcodes, operands = (t[visits].ravel().tolist()
                                 for t in app._visit_ops)
            want_ops += zip(opcodes, operands)
    got_ops = [op for tile in range(app.n_tiles)
               for op in app.tile_ops(tile)]
    assert got_ops == want_ops
    assert_bits(app.image, want_image, "the batched rendering")
    assert (app.rays_cast, app.rays_hit) == (256, want_hit)


# ---------------------------------------------------------------- volrend

@settings(max_examples=12, deadline=None)
@given(side_blocks=st.sampled_from([(8, 2), (16, 4), (32, 4), (16, 8)]),
       image=st.sampled_from([(8, 8), (16, 8), (16, 16)]),
       cutoff=st.sampled_from([0.0, 0.3, 0.95, 1.0]))
def test_volrend_rendering_is_the_one_ray_march(side_blocks, image, cutoff):
    """Every tile's ops and the image bits: ``march`` pixel by pixel (the
    octree test, the four voxel columns of a sample, then shading and
    the pixel write) against the every-ray-at-once rendering, volumes
    smaller and larger than the image, and cutoffs that end every ray at
    once (0), early, or never (1)."""
    side, block = side_blocks
    width, height = image
    app = VolrendApp(MachineConfig(n_processors=4), volume_side=side,
                     width=width, height=height, block=block,
                     opacity_cutoff=cutoff)
    app.ensure_setup()
    want_image, want_ops = np.zeros_like(app.image), []
    for tile in range(app.n_tiles):
        for py, px in app.tile_pixels(tile):
            want_image[py, px], visits = march(app, px, py)
            for kind, idx in visits:
                if kind == "node":
                    want_ops += [(1, app.rnodes.element(idx * _NODE_DOUBLES)),
                                 (0, 12)]
                else:
                    want_ops += [(1, app.rvolume.element(idx)), (0, 8)]
            want_ops += [(0, 30), (2, app.rpixels.element(
                app._pixel_elem(py, px)))]
    app.begin_render()
    got_ops = [op for tile in range(app.n_tiles)
               for op in app.tile_ops(tile)]
    assert got_ops == want_ops
    assert_bits(app.image, want_image, "the batched volume march")


# ------------------------------------------------------------------- mp3d


def mp3d_step(app, mine, rng):
    """MP3D's one-particle-at-a-time step (numerics only)."""
    for p in mine:
        app.pos[p] += 0.05 * app.vel[p]
        for ax in range(3):
            if app.pos[p, ax] < 0.0:
                app.pos[p, ax] = -app.pos[p, ax]
                app.vel[p, ax] = -app.vel[p, ax]
            elif app.pos[p, ax] > 1.0:
                app.pos[p, ax] = 2.0 - app.pos[p, ax]
                app.vel[p, ax] = -app.vel[p, ax]
        cps = app.cells_per_side
        ijk = np.minimum((app.pos[p] * cps).astype(int), cps - 1)
        crec = app.cells[int((ijk[0] * cps + ijk[1]) * cps + ijk[2])]
        crec[0] += 1.0
        crec[1:4] += app.vel[p]
        crec[4] += 0.5 * float(app.vel[p] @ app.vel[p])
        if rng.random() < app.collide_prob:
            speed = float(np.linalg.norm(app.vel[p]))
            mix = 0.5 * (app.vel[p] + crec[5:8])
            norm = float(np.linalg.norm(mix))
            if norm > 1e-12 and speed > 0.0:
                app.vel[p] = mix * (speed / norm)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(8, 400),
       prob=st.sampled_from([0.0, 0.25, 1.0]), speed=st.floats(0.01, 3.0))
def test_mp3d_batch_step_is_the_particle_loop(seed, n, prob, speed):
    """Two steps of every processor, in processor order, as a capture
    drains them; ``speed`` scales velocities so walls are hit too."""
    def app():
        a = MP3DApp(MachineConfig(n_processors=8), n_particles=n,
                    cells_per_side=4, collide_prob=prob, seed=seed)
        a.ensure_setup()
        a.vel *= speed
        return a

    batch, loop = app(), app()
    rngs = [[a.rng(1, pid) for pid in range(8)] for a in (batch, loop)]
    for _ in range(2):
        for pid in range(8):
            mine = batch.partition_slice(n, pid)
            list(batch._advance(mine, rngs[0][pid]))
            mp3d_step(loop, mine, rngs[1][pid])
    for name in ("pos", "vel", "cells"):
        assert_bits(getattr(batch, name), getattr(loop, name),
                    f"mp3d's batched step ({name})")


# ------------------------------------------------------------------ radix


@given(digits=st.lists(st.integers(0, 7), max_size=200))
def test_radix_stable_rank_is_the_counting_loop(digits):
    seen = [0] * 8
    want = []
    for d in digits:
        want.append(seen[d])
        seen[d] += 1
    got = _stable_rank_within(np.array(digits, dtype=np.int64), 8)
    assert got.tolist() == want


def test_element_addrs_is_element_checked_once():
    region = AddressSpace().allocate("r", 5)
    n = region.n_elements
    assert element_addrs(region, np.arange(n)).tolist() == \
        [region.element(i) for i in range(n)]
    for outside in ([0, n], [-1, 0]):
        with pytest.raises(IndexError):
            element_addrs(region, np.array(outside))
    # an address an int64 array cannot hold is refused by name, not wrapped
    top = Region("top", 2 ** 63 - 16, 64)
    assert element_addrs(top, np.arange(2)).tolist() == [2 ** 63 - 16,
                                                         2 ** 63 - 8]
    with pytest.raises(ValueError, match=f"^element address {2 ** 63} "
                                         f"outside int64"):
        element_addrs(top, np.arange(3))
