"""Raytrace — recursive ray tracing of a sphere scene (SPLASH-2 RAYTRACE
analog; the paper ran the "Balls4" scene).

Paper characterization (Tables 2-3): read-only, unstructured communication;
a *large* working set (rays reflect, so a processor's rays wander over much
of the scene); pixel plane partitioned like Ocean's grid; scene data
read-only and distributed randomly; an octree imposed on the scene for
efficiency, whose top levels everybody shares.  Figure 2: ≤10% gain even at 8-way clustering (prefetching
of cold scene data); Figure 4: working-set overlap keeps helping even at
32 KB caches because the working set is large.

Implementation: reflective spheres in the unit cube, an octree built over
them (subdivide while a node holds more than a few spheres), orthographic
camera, Lambertian shading plus specular reflection up to ``max_depth``
bounces.  Rays traverse the shared octree (node reads), test spheres
(sphere-record reads) and write the pixel they were cast for.  All
intersection math is real and the rendered image is deterministic.

The pixel plane is *not* statically partitioned here: the program is a
lock-protected global queue of ``queue_tile``-square tiles (SPLASH
RAYTRACE's task queues — static tiles idle the processors whose tiles miss
the scene), any processor may render any tile, and :meth:`setup`
interleaves the pixel pages because no tile has a natural owner.  Which
tile a processor takes next is decided by the order the simulated machine
grants that lock, and it is the only thing simulated time decides — the
references a tile emits (:meth:`RaytraceApp.tile_ops`) are a pure function
of the tile — so the app is captured once, tile by tile, and the queue is
replayed as a ``TASK`` op (:class:`~repro.apps.base.TileQueueApplication`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import Op, Read, Work, Write
from .base import TileQueueApplication

__all__ = ["RaytraceApp"]

_SPHERE_DOUBLES = 8   # center(3) + radius + reflectivity + pad = one line
_NODE_DOUBLES = 8     # one line per octree node (bounds/children metadata)

_LIGHT = np.array([0.40824829, 0.40824829, -0.81649658])  # normalized
#: child ``o`` of an octree node sits at center + half/2 * _OCTANTS[o]
_OCTANTS = np.array([[1 if o & 4 else -1, 1 if o & 2 else -1,
                      1 if o & 1 else -1] for o in range(8)], dtype=float)


class _Node:
    """Octree node over the unit cube."""

    __slots__ = ("center", "half", "children", "spheres")

    def __init__(self, center: np.ndarray, half: float) -> None:
        self.center = center
        self.half = half
        self.children: list["_Node"] | None = None
        self.spheres: list[int] = []


class RaytraceApp(TileQueueApplication):
    """Recursive sphere ray tracer.

    Parameters
    ----------
    width, height:
        Image size (default 96×96; pixels are tiled over the processor
        grid exactly like Ocean's subgrids).
    n_spheres:
        Scene size (default 160 — a "Balls"-class scene, dense enough
        that the traversal working set exceeds the paper's largest
        32 KB cache).
    max_depth:
        Reflection bounce limit (default 3; Volrend is the no-reflection
        counterpart).
    """

    name = "raytrace"

    def __init__(self, config: MachineConfig, width: int = 96,
                 height: int = 96, n_spheres: int = 160, max_depth: int = 3,
                 leaf_spheres: int = 4, max_tree_depth: int = 6,
                 queue_tile: int = 4, seed: int = 12345) -> None:
        super().__init__(config, width, height, queue_tile, seed)
        self.n_spheres = n_spheres
        self.max_depth = max_depth
        self.leaf_spheres = leaf_spheres
        self.max_tree_depth = max_tree_depth
        self.centers = np.empty((n_spheres, 3))
        self.radii = np.empty(n_spheres)
        self.reflect = np.empty(n_spheres)
        #: primary rays of the latest rendering (reset by ``begin_render``)
        self.rays_cast = 0
        self.rays_hit = 0
        self.nodes: list[_Node] = []

    # ---------------------------------------------------------------- setup
    def setup(self) -> None:
        rng = self.rng(0)
        self.centers[:] = rng.uniform(0.15, 0.85, size=(self.n_spheres, 3))
        self.radii[:] = rng.uniform(0.04, 0.10, self.n_spheres)
        self.reflect[:] = rng.uniform(0.2, 0.7, self.n_spheres)
        self._build_octree()
        self.rspheres = self.space.allocate(
            "raytrace.spheres", self.n_spheres * _SPHERE_DOUBLES)
        self.rnodes = self.space.allocate(
            "raytrace.nodes", len(self.nodes) * _NODE_DOUBLES)
        self.rpixels = self.space.allocate(
            "raytrace.pixels", self.width * self.height)
        self.rqueue = self.space.allocate("raytrace.queue", 8)
        self.place_interleaved(self.rspheres)
        self.place_interleaved(self.rnodes)
        # tile ownership is dynamic, so pixel pages have no natural owner
        self.place_interleaved(self.rpixels)

    def _build_octree(self) -> None:
        root = _Node(np.full(3, 0.5), 0.5)
        root.spheres = list(range(self.n_spheres))
        self.nodes = [root]
        self._node_index: dict[int, int] = {id(root): 0}
        self._subdivide(root, 0)

    def _subdivide(self, node: _Node, depth: int) -> None:
        if len(node.spheres) <= self.leaf_spheres or depth >= self.max_tree_depth:
            return
        node.children = []
        half = node.half / 2
        # the eight children's centers, and per child a mask over the
        # parent's spheres (in their order): does the sphere overlap the
        # child's AABB (conservative center-distance test)?
        centers = node.center + _OCTANTS * node.half / 2
        spheres = np.asarray(node.spheres, dtype=np.intp)
        inside = np.all(np.abs(self.centers[spheres] - centers[:, None])
                        <= (half + self.radii[spheres])[:, None], axis=2)
        for o in range(8):
            child = _Node(centers[o], half)
            child.spheres = spheres[inside[o]].tolist()
            self._node_index[id(child)] = len(self.nodes)
            self.nodes.append(child)
            node.children.append(child)
        node.spheres = []
        for child in node.children:
            self._subdivide(child, depth + 1)

    # ----------------------------------------------------------- numerics
    def _ray_aabb(self, orig: np.ndarray, inv_dir: np.ndarray,
                  node: _Node) -> bool:
        # slab method; axes with zero direction (inv_dir = ±inf) use an
        # explicit containment test to avoid the 0·inf = NaN pitfall
        tmin, tmax = 0.0, np.inf
        for ax in range(3):
            lo = node.center[ax] - node.half
            hi = node.center[ax] + node.half
            o = orig[ax]
            inv = inv_dir[ax]
            if np.isinf(inv):
                if o < lo or o > hi:
                    return False
                continue
            t1 = (lo - o) * inv
            t2 = (hi - o) * inv
            if t1 > t2:
                t1, t2 = t2, t1
            tmin = max(tmin, t1)
            tmax = min(tmax, t2)
            if tmin > tmax:
                return False
        return True

    def _ray_sphere(self, orig: np.ndarray, direction: np.ndarray,
                    s: int) -> float | None:
        oc = orig - self.centers[s]
        b = float(oc @ direction)
        c = float(oc @ oc) - self.radii[s] ** 2
        disc = b * b - c
        if disc < 0.0:
            return None
        t = -b - np.sqrt(disc)
        if t < 1e-6:
            t = -b + np.sqrt(disc)
        return float(t) if t > 1e-6 else None

    def _trace(self, orig: np.ndarray, direction: np.ndarray, depth: int,
               trace: list[tuple[str, int]]) -> float:
        """Shade one ray, appending ('node', idx) / ('sphere', idx) visits."""
        with np.errstate(divide="ignore"):
            inv_dir = 1.0 / direction
        best_t, best_s = np.inf, -1
        stack = [self.nodes[0]]
        tested: set[int] = set()
        while stack:
            node = stack.pop()
            trace.append(("node", self._node_index[id(node)]))
            if not self._ray_aabb(orig, inv_dir, node):
                continue
            if node.children is not None:
                stack.extend(node.children)
                continue
            for s in node.spheres:
                if s in tested:
                    continue
                tested.add(s)
                trace.append(("sphere", s))
                t = self._ray_sphere(orig, direction, s)
                if t is not None and t < best_t:
                    best_t, best_s = t, s
        if best_s < 0:
            return 0.05  # background
        hit = orig + best_t * direction
        normal = (hit - self.centers[best_s]) / self.radii[best_s]
        shade = max(0.0, float(-normal @ _LIGHT)) * (1.0 - self.reflect[best_s])
        if depth + 1 < self.max_depth and self.reflect[best_s] > 0.0:
            rdir = direction - 2.0 * float(direction @ normal) * normal
            shade += self.reflect[best_s] * self._trace(
                hit + 1e-5 * rdir, rdir, depth + 1, trace)
        return min(shade, 1.0)

    # ------------------------------------------------------------- program
    def begin_render(self) -> None:
        super().begin_render()
        self.rays_cast = 0
        self.rays_hit = 0

    def tile_ops(self, tile: int) -> Iterator[Op]:
        """Cast the tile's primary rays; one read per node or sphere a ray
        (or its reflections) visits, one write per pixel."""
        node_addr = self.rnodes.element
        sph_addr = self.rspheres.element
        pix_addr = self.rpixels.element
        direction = np.array([0.0, 0.0, 1.0])
        for py, px in self.tile_pixels(tile):
            orig = np.array([(px + 0.5) / self.width,
                             (py + 0.5) / self.height, -0.5])
            visits: list[tuple[str, int]] = []
            shade = self._trace(orig, direction, 0, visits)
            self.image[py, px] = shade
            self.rays_cast += 1
            if shade > 0.05:
                self.rays_hit += 1
            for kind, idx in visits:
                if kind == "node":
                    yield Read(node_addr(idx * _NODE_DOUBLES))
                    yield Work(20)
                else:
                    yield Read(sph_addr(idx * _SPHERE_DOUBLES))
                    yield Work(45)
            yield Work(60)  # shading (normal, dot products, clamp)
            yield Write(pix_addr(self._pixel_elem(py, px)))
