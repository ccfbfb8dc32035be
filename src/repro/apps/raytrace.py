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

The numerics run as batches, with the bits of tracing one ray at a time
(which the golden image in ``tests/golden/capture_state.json`` pins): a
row of tiles' primary rays is one batch, and each bounce of their
reflections another.  A batch walks the octree one level at a time for
all its rays — every ray visits the nodes in one fixed order, each node
whose ancestors' boxes it passes — and its dots are per-row dots
(:func:`~repro.apps.base.row_dots`).  A tile's ops are then looked up, two
per visit, in a table of opcodes and operands built once per scene, and
leave as one batch (:meth:`~repro.apps.base.Application.op_batch`).

The pixel plane is *not* statically partitioned here: the program is a
lock-protected global queue of ``queue_tile``-square tiles (SPLASH
RAYTRACE's task queues — static tiles idle the processors whose tiles miss
the scene), any processor may render any tile, and :meth:`setup`
interleaves the pixel pages because no tile has a natural owner.  Which
tile a processor takes next is decided by the order the simulated machine
grants that lock, and it is the only thing simulated time decides — the
references a tile emits (:meth:`RaytraceApp._render`) are a pure function
of the tile — so the app is captured once, tile by tile, and the queue is
replayed as a ``TASK`` op (:class:`~repro.apps.base.TileQueueApplication`).
"""

from __future__ import annotations

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import OP_READ, OP_WORK, OP_WRITE
from .base import TileQueueApplication, element_addrs, row_dots

__all__ = ["RaytraceApp"]

_SPHERE_DOUBLES = 8   # center(3) + radius + reflectivity + pad = one line
_NODE_DOUBLES = 8     # one line per octree node (bounds/children metadata)

_LIGHT = np.array([0.40824829, 0.40824829, -0.81649658])  # normalized
#: every primary ray's direction (an orthographic camera)
_PRIMARY = np.array([0.0, 0.0, 1.0])
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
    #: an octree node splits while it holds more spheres than this and
    #: is shallower than ``max_tree_depth``
    leaf_spheres = 4
    max_tree_depth = 6

    def __init__(self, config: MachineConfig, width: int = 96,
                 height: int = 96, n_spheres: int = 160, max_depth: int = 3,
                 seed: int = 12345) -> None:
        super().__init__(config, width, height, seed)
        self.n_spheres = n_spheres
        self.max_depth = max_depth
        self.centers = np.empty((n_spheres, 3))
        self.radii = np.empty(n_spheres)
        self.reflect = np.empty(n_spheres)
        #: primary rays of the latest rendering (reset by ``begin_render``)
        self.rays_cast = 0
        self.rays_hit = 0
        self.nodes: list[_Node] = []
        #: the traversal tables (:meth:`_index_octree`), built by the
        #: first rendering: a run that replays a stored trace needs none
        self._visit_ops: tuple | None = None

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

    def _index_octree(self) -> None:
        """The tables a traversal reads (the octree and the regions must
        exist).

        Nodes are numbered here in *visit order*: the order in which a
        ray that passes every box test visits them — each node, then its
        children's subtrees, last child first (a depth-first stack that
        pushes the children in order).  Every ray visits a subset of
        them in this order.  By position: the node's box, ``_lo`` and
        ``_hi`` (axis-major, 3 x n); ``_kids``, its children's positions
        (-1 at a leaf); and its *events* ``[_ev_start[i], _ev_start[i +
        1])`` of ``_ev_sphere`` and ``_ev_code``: the node (sphere -1),
        then a leaf's spheres in list order.  A code indexes both tables
        of ``_visit_ops``, ``(opcodes, operands)``: the two ops a ray
        pays for visiting node ``k`` (code ``k``: ``Read`` +
        ``Work(20)``) or sphere ``s`` (code ``len(nodes) + s``: ``Read``
        + ``Work(45)``), and that a pixel pays last (code ``_pixel_code``
        + its element: ``Work(60)`` for shading + ``Write``)."""
        nodes = self.nodes
        order, stack = [], [nodes[0]]
        while stack:
            order.append(stack.pop())
            stack.extend(order[-1].children or ())
        position = {id(n): i for i, n in enumerate(order)}
        self._kids = np.array([[-1] * 8 if n.children is None
                               else [position[id(c)] for c in n.children]
                               for n in order])
        self._lo = np.array([n.center - n.half for n in order]).T.copy()
        self._hi = np.array([n.center + n.half for n in order]).T.copy()
        index = self._node_index
        events = [[(-1, index[id(n)])]
                  + [(s, len(nodes) + s) for s in n.spheres]  # a leaf's
                  for n in order]
        self._ev_start = np.cumsum([0] + [len(e) for e in events])
        self._ev_sphere, self._ev_code = np.array(
            [ev for e in events for ev in e]).T
        node_addrs = element_addrs(self.rnodes,
                                   np.arange(len(nodes)) * _NODE_DOUBLES)
        sph_addrs = element_addrs(self.rspheres,
                                  np.arange(self.n_spheres) * _SPHERE_DOUBLES)
        pix_addrs = element_addrs(self.rpixels,
                                  np.arange(self.width * self.height))
        self._pixel_code = len(nodes) + self.n_spheres
        n_reads = self._pixel_code
        opcodes = np.full((n_reads + len(pix_addrs), 2), OP_WORK)
        opcodes[:n_reads, 0] = OP_READ
        opcodes[n_reads:, 1] = OP_WRITE
        operands = np.empty(opcodes.shape, dtype=np.int64)
        operands[:n_reads, 0] = np.concatenate((node_addrs, sph_addrs))
        operands[:len(nodes), 1] = 20
        operands[len(nodes):n_reads, 1] = 45
        operands[n_reads:] = np.stack((np.full(len(pix_addrs), 60),
                                       pix_addrs), axis=1)
        self._visit_ops = (opcodes, operands)

    # ----------------------------------------------------------- numerics
    def _ray_spheres(self, orig: np.ndarray, direction: np.ndarray,
                     s: np.ndarray) -> np.ndarray:
        """Distance along ray ``i`` (rows of ``orig`` and ``direction``)
        to sphere ``s[i]``, ``inf`` for a miss.

        The bits are those of the one-ray rule ``oc = orig - center``,
        ``b = oc @ direction``, ``c = oc @ oc - radius ** 2``: per-row
        dots through :func:`row_dots`, and ``float_power``, which rounds
        as a scalar's ``** 2`` does (an array's ``** 2`` squares)."""
        oc = orig - self.centers[s]
        b = row_dots(oc, direction)
        disc = b * b - (row_dots(oc, oc) - np.float_power(self.radii[s], 2))
        with np.errstate(invalid="ignore"):  # a miss: masked below
            root = np.sqrt(disc)
        t = -b - root
        t = np.where(t < 1e-6, -b + root, t)
        return np.where((disc >= 0.0) & (t > 1e-6), t, np.inf)

    def _cast(self, orig: np.ndarray, direction: np.ndarray):
        """Trace rays (rows of ``orig`` and ``direction``) as one batch.

        A ray visits a node when it passes the box test of every
        ancestor, and a leaf's spheres when it passes the leaf's too; it
        tests each sphere once, where it first meets it, and takes the
        first nearest hit in visit order.  The tree is walked one level
        at a time for all rays together.  Returns ``(ray, code, best_s,
        best_t)``: per visit, ray after ray and each in visit order, its
        ray and its ``_visit_ops`` code; per ray, the nearest sphere (-1
        for none) and its distance."""
        with np.errstate(divide="ignore"):
            inv = (1.0 / direction).T.copy()
        o = orig.T.copy()
        ray = np.arange(len(orig))
        pos = np.zeros(len(orig), dtype=np.intp)
        rays, poss, passes = [], [], []
        while len(ray):
            passed = _slab_hits(o.take(ray, axis=1), inv.take(ray, axis=1),
                                self._lo.take(pos, axis=1),
                                self._hi.take(pos, axis=1))
            rays.append(ray)
            poss.append(pos)
            passes.append(passed)
            inner = passed & (self._kids[pos, 0] >= 0)
            ray = np.repeat(ray[inner], 8)
            pos = self._kids[pos[inner]].ravel()
        ray, pos, passed = map(np.concatenate, (rays, poss, passes))
        by = np.argsort(ray * len(self._kids) + pos)
        ray, pos, passed = ray[by], pos[by], passed[by]
        # a visit is the node's event, and a passed leaf's sphere events
        start = self._ev_start[pos]
        count = np.where(passed, self._ev_start[pos + 1] - start, 1)
        ev = (np.repeat(start - (np.cumsum(count) - count), count)
              + np.arange(count.sum()))
        ray, sphere = np.repeat(ray, count), self._ev_sphere[ev]
        tests = np.flatnonzero(sphere >= 0)
        first = np.unique(ray[tests] * self.n_spheres + sphere[tests],
                          return_index=True)[1]
        keep = sphere < 0
        keep[tests[first]] = True
        ray, ev, sphere = ray[keep], ev[keep], sphere[keep]
        tests = np.flatnonzero(sphere >= 0)
        t = np.full(len(ev), np.inf)
        t[tests] = self._ray_spheres(orig[ray[tests]],
                                     direction[ray[tests]], sphere[tests])
        # the nearest hit of each ray: the first visit at its least t
        # (every ray visits the root, so no ray's run of visits is empty)
        runs = np.flatnonzero(np.diff(ray, prepend=-1))
        least = np.minimum.reduceat(t, runs)
        at = np.flatnonzero((t == least[ray]) & (t < np.inf))
        rays_hit, firsts = np.unique(ray[at], return_index=True)
        best_s = np.full(len(orig), -1)
        best_t = np.full(len(orig), np.inf)
        best_s[rays_hit] = sphere[at[firsts]]
        best_t[rays_hit] = t[at[firsts]]
        return ray, self._ev_code[ev], best_s, best_t

    # ------------------------------------------------------------- program
    def begin_render(self) -> None:
        super().begin_render()
        self.rays_cast = 0
        self.rays_hit = 0
        if self._visit_ops is None:
            self._index_octree()

    def _render(self, tiles: range) -> dict[int, tuple[np.ndarray,
                                                       np.ndarray]]:
        """Render ``tiles`` into ``image``; return each one's ops, looked
        up by its visit codes in ``_visit_ops``: one read per node or
        sphere a ray (or its reflections) visits, one write per pixel.

        The primary rays are one :meth:`_cast`, and each bounce of their
        reflections one more.  A ray that hits sphere ``s`` at ``t``
        shades Lambertian, plus ``reflect[s]`` times its reflection's
        shade while bounces remain, clamped at 1; a miss is the
        background, 0.05.  Each step has the bits of the one-ray rule
        (per-row dots through :func:`row_dots`; ``max(0, x)`` and
        ``min(x, 1)`` as ``np.where``, which keep python's choice between
        equal zeros).  A pixel's codes are its primary ray's visits, then
        each bounce's, then its shading and write."""
        pixels = [p for tile in tiles for p in self.tile_pixels(tile)]
        py, px = np.array(pixels).T
        orig = np.stack([(px + 0.5) / self.width, (py + 0.5) / self.height,
                         np.full(len(pixels), -0.5)], axis=1)
        direction = np.broadcast_to(_PRIMARY, orig.shape)
        pixel = np.arange(len(pixels))
        bounces = []  # per bounce: the rays' pixels and visits, which rays
        # hit, their sphere and own shade, and which of them bounce on
        for depth in range(max(self.max_depth, 1)):
            ray, code, best_s, best_t = self._cast(orig, direction)
            hit = np.flatnonzero(best_s >= 0)
            s = best_s[hit]
            point = orig[hit] + best_t[hit, None] * direction[hit]
            normal = (point - self.centers[s]) / self.radii[s, None]
            lambert = row_dots(-normal, np.broadcast_to(_LIGHT, normal.shape))
            shade = (np.where(lambert > 0.0, lambert, 0.0)
                     * (1.0 - self.reflect[s]))
            bounce = (self.reflect[s] > 0.0) & (depth + 1 < self.max_depth)
            bounces.append((pixel[ray], code, len(pixel), hit, s, shade,
                            bounce))
            if not bounce.any():
                break
            d, n = direction[hit[bounce]], normal[bounce]
            rdir = d - (2.0 * row_dots(d, n))[:, None] * n
            orig, direction = point[bounce] + 1e-5 * rdir, rdir
            pixel = pixel[hit[bounce]]
        below = None  # the shades of the next bounce's rays
        for _, _, n_rays, hit, s, shade, bounce in reversed(bounces):
            if below is not None:
                shade[bounce] += self.reflect[s[bounce]] * below
            below = np.full(n_rays, 0.05)  # background
            below[hit] = np.where(1.0 < shade, 1.0, shade)
        self.image[py, px] = below
        self.rays_cast += len(pixels)
        self.rays_hit += int(np.count_nonzero(below > 0.05))
        owner = np.concatenate([b[0] for b in bounces]
                               + [np.arange(len(pixels))])
        codes = np.concatenate([b[1] for b in bounces]
                               + [self._pixel_code
                                  + self._pixel_elem(py, px)])
        order = np.argsort(owner, kind="stable")
        per_tile = len(pixels) // len(tiles)
        cuts = np.searchsorted(owner[order],
                               np.arange(per_tile, len(pixels), per_tile))
        ops = [np.split(table[codes[order]].ravel(), 2 * cuts)
               for table in self._visit_ops]
        return dict(zip(tiles, zip(*ops)))


def _slab_hits(o: np.ndarray, inv: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """Slab test of ray ``i`` (from ``o[:, i]``, inverse direction
    ``inv[:, i]``) against box ``[lo[:, i], hi[:, i]]``, axis-major (3 x
    n): the entry distance, at least 0, is at most the exit distance.  An
    axis the ray does not move along (``inv`` = ±inf) is a containment
    test instead, avoiding the 0·inf = NaN pitfall.  Only the outcome is
    returned, so which of two equal distances (or zeros) a minimum picks
    does not matter."""
    with np.errstate(invalid="ignore"):  # 0·inf on a flat axis: replaced
        t1 = (lo - o) * inv
        t2 = (hi - o) * inv
    near, far = np.minimum(t1, t2), np.maximum(t1, t2)
    flat = np.isinf(inv)
    np.copyto(near, -np.inf, where=flat)
    np.copyto(far, np.inf, where=flat)
    hits = (np.maximum(np.maximum(near[0], near[1]), np.maximum(near[2], 0.0))
            <= np.minimum(np.minimum(far[0], far[1]), far[2]))
    if flat.any():
        hits &= np.all(((lo <= o) & (o <= hi)) | ~flat, axis=0)
    return hits
