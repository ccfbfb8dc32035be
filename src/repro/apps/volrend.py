"""Volrend — ray-cast volume rendering (SPLASH-2 VOLREND analog; the paper
rendered a human head from a CT scan).

Paper characterization (Tables 2-3): read-only, quite unstructured
communication; a *quite small* O(∛n) working set — unlike Raytrace, rays do
not reflect, so the rays of a pixel tile stay inside the slab of volume
behind it.  Figure 2: benefits from clustering slightly larger than
Barnes/FMM but under 10%; Figure 8: strong working-set overlap benefit
around the 16 KB cache size.

Implementation: a synthetic "head" — nested ellipsoidal shells (skin,
skull, brain) — voxelized onto an n³ density grid.  A min/max octree is
imposed on the volume ("both applications impose an octree ... for
efficiency which is shared"): rays march front-to-back with early ray
termination, skipping blocks whose octree node reports only transparent
voxels.  The volume and octree pages are interleaved across clusters.

No processor owns a part of the image: the program is a lock-protected
global queue of ``queue_tile``-square tiles (SPLASH VOLREND steals tasks —
a static partition idles the processors whose tiles miss the head), any
processor may render any tile, and :meth:`setup` interleaves the pixel
pages (laid out tile-contiguously, like Ocean's grid) because tile
ownership is dynamic.  Which tile a processor takes next is decided by the
order the simulated machine grants that lock, and it is the only thing
simulated time decides — a tile's rays, samples and pixel writes
(:meth:`VolrendApp._render`) are a pure function of the tile — so the app
is captured once, tile by tile, and the queue is replayed as a ``TASK`` op
(:class:`~repro.apps.base.TileQueueApplication`).

The tests check the render against a brute-force march (octree skipping
must not change the image) and basic anatomy (head opaque, corners empty).
"""

from __future__ import annotations

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import OP_READ, OP_WORK, OP_WRITE
from .base import TileQueueApplication, element_addrs

__all__ = ["VolrendApp"]

_NODE_DOUBLES = 8  # (min, max, child info) — one line per octree node

#: per visit kind (node, voxel, pixel), its two ops, and their operands
#: with the address left 0: read the octree node (WORK 12), read the voxel
#: column (WORK 8), or shade the pixel (WORK 30) and write it
_VISIT_OPS = np.array([[OP_READ, OP_WORK], [OP_READ, OP_WORK],
                       [OP_WORK, OP_WRITE]])
_VISIT_ARGS = np.array([[0, 12], [0, 8], [30, 0]])


class VolrendApp(TileQueueApplication):
    """Front-to-back volume ray caster with min/max octree skipping.

    Parameters
    ----------
    volume_side:
        Voxels per side of the cubic volume (default 128; the paper's CT
        head is 256-class).  Must be a multiple of ``block``.
    width, height:
        Image size (default 64×64, tiled over the processor grid).
    block:
        Leaf block size of the min/max octree (default 4 voxels).
    """

    name = "volrend"
    #: densities at or below this are empty space, skipped by the octree
    threshold = 0.05

    def __init__(self, config: MachineConfig, volume_side: int = 128,
                 width: int = 64, height: int = 64, block: int = 4,
                 opacity_cutoff: float = 0.95, seed: int = 12345) -> None:
        super().__init__(config, width, height, seed)
        if volume_side % block:
            raise ValueError("block must divide volume_side")
        self.nv = volume_side
        self.block = block
        self.cutoff = opacity_cutoff
        self.volume = np.zeros((self.nv, self.nv, self.nv))
        # min/max octree levels: level 0 = leaf blocks, upwards by 2×
        self.minmax: list[np.ndarray] = []

    # ---------------------------------------------------------------- setup
    def setup(self) -> None:
        n = self.nv
        idx = (np.indices((n, n, n)) + 0.5) / n  # voxel centres in [0,1]
        x, y, z = idx[0], idx[1], idx[2]
        # nested ellipsoids: brain core, skull shell, skin shell
        r = np.sqrt(((x - 0.5) / 0.38) ** 2 + ((y - 0.5) / 0.30) ** 2
                    + ((z - 0.5) / 0.34) ** 2)
        self.volume[:] = 0.0
        self.volume[r < 1.00] = 0.15          # skin
        self.volume[r < 0.92] = 0.02          # subcutaneous gap (mostly clear)
        shell = (r < 0.85) & (r >= 0.72)
        self.volume[shell] = 0.80             # skull
        self.volume[r < 0.72] = 0.35          # brain
        self._build_minmax()
        self.rvolume = self.space.allocate("volrend.volume", n ** 3)
        n_nodes = sum(a.size for a in self.minmax)
        self.rnodes = self.space.allocate("volrend.nodes", n_nodes * _NODE_DOUBLES)
        self.rpixels = self.space.allocate("volrend.pixels",
                                           self.width * self.height)
        self.rqueue = self.space.allocate("volrend.queue", 8)
        self.place_interleaved(self.rvolume)
        self.place_interleaved(self.rnodes)
        # tile ownership is dynamic, so pixel pages have no natural owner
        self.place_interleaved(self.rpixels)

    def _build_minmax(self) -> None:
        nb = self.nv // self.block
        b = self.block
        leaf = self.volume.reshape(nb, b, nb, b, nb, b).max(axis=(1, 3, 5))
        self.minmax = [leaf]
        while self.minmax[-1].shape[0] > 1:
            cur = self.minmax[-1]
            m = cur.shape[0] // 2
            nxt = cur.reshape(m, 2, m, 2, m, 2).max(axis=(1, 3, 5))
            self.minmax.append(nxt)

    # ------------------------------------------------------------- program
    def _render(self, tiles: range) -> dict[int, tuple[np.ndarray,
                                                       np.ndarray]]:
        """March every pixel ray of ``tiles`` front to back (+z), one step
        of each live ray per pass, into ``image``; return each tile's ops:
        per visit a row of :data:`_VISIT_OPS`, one read per octree test
        and per voxel column sampled, then the pixel's shading and write.

        A ray skips a block its octree node reports transparent, else
        takes a trilinear sample over the 8 surrounding voxels — what
        real volume renderers do, and what gives adjacent rays their
        *shared* working set (the 2×2 voxel columns straddle rays) — and
        stops once opaque.  Each step is elementwise over the rays
        (``np.minimum``/``np.maximum`` for python's ``min``/``max``,
        ``astype(int)`` truncating as ``int`` does), so every ray has
        the bits of marching it alone (the tests keep that march);
        a stable sort puts the visits back in ray order."""
        n, b, cutoff = self.nv, self.block, self.cutoff
        nb = n // b
        step = 1.0 / n
        py, px = np.array([p for tile in tiles
                           for p in self.tile_pixels(tile)]).T
        x = (px + 0.5) / self.width
        y = (py + 0.5) / self.height
        fx, fy = x * n - 0.5, y * n - 0.5
        i0 = np.minimum(np.maximum(fx.astype(int), 0), n - 2)
        j0 = np.minimum(np.maximum(fy.astype(int), 0), n - 2)
        wx = np.minimum(np.maximum(fx - i0, 0.0), 1.0)
        wy = np.minimum(np.maximum(fy - j0, 0.0), 1.0)
        bi = np.minimum((x * n).astype(int), n - 1) // b
        bj = np.minimum((y * n).astype(int), n - 1) // b
        # the four voxel columns a sample reads, one line each
        columns = np.stack([(i * n + j) * n for i, j in (
            (i0, j0), (i0, j0 + 1), (i0 + 1, j0), (i0 + 1, j0 + 1))])
        flat = self.volume.ravel()
        z = np.full(len(px), step / 2)
        opacity = np.zeros(len(px))
        intensity = np.zeros(len(px))
        rays, kinds, idxs = [], [], []
        live = np.flatnonzero((z < 1.0) & (opacity < cutoff))
        while len(live):
            bk = np.minimum((z[live] * n).astype(int), n - 1) // b
            rays.append(live)
            kinds.append(np.zeros(len(live), dtype=np.int8))
            idxs.append((bi[live] * nb + bj[live]) * nb + bk)
            clear = self.minmax[0][bi[live], bj[live], bk] <= self.threshold
            # skip to the far face of each transparent block
            z[live[clear]] = (bk[clear] + 1) * b * step + step / 2
            s = live[~clear]
            fz = z[s] * n - 0.5
            k0 = np.minimum(np.maximum(fz.astype(int), 0), n - 2)
            wz = np.minimum(np.maximum(fz - k0, 0.0), 1.0)
            sampled = columns[:, s] + k0
            c00, c01, c10, c11 = flat[sampled] * (1 - wz) \
                + flat[sampled + 1] * wz
            d = ((c00 * (1 - wy[s]) + c01 * wy[s]) * (1 - wx[s])
                 + (c10 * (1 - wy[s]) + c11 * wy[s]) * wx[s])
            rays += [s] * 4
            kinds += [np.ones(len(s), dtype=np.int8)] * 4
            idxs += list(sampled)
            dense = d > self.threshold
            hit, d = s[dense], d[dense]
            alpha = np.minimum(d * 0.5, 1.0)
            intensity[hit] += (1.0 - opacity[hit]) * alpha * d
            opacity[hit] += (1.0 - opacity[hit]) * alpha
            z[s] += step
            live = live[(z[live] < 1.0) & (opacity[live] < cutoff)]
        self.image[py, px] = intensity
        rays.append(np.arange(len(px)))
        kinds.append(np.full(len(px), 2, dtype=np.int8))
        idxs.append(self._pixel_elem(py, px))
        order = np.argsort(np.concatenate(rays), kind="stable")
        kind = np.concatenate(kinds)[order]
        idx = np.concatenate(idxs)[order]
        args = _VISIT_ARGS[kind]
        for k, region, scale in ((0, self.rnodes, _NODE_DOUBLES),
                                 (1, self.rvolume, 1), (2, self.rpixels, 1)):
            at = kind == k
            args[at, k // 2] = element_addrs(region, idx[at] * scale)
        # a tile's rays are consecutive, and the pixel visit ends each ray
        cuts = 2 * np.flatnonzero(kind == 2)[
            self.queue_tile ** 2 - 1:-1:self.queue_tile ** 2] + 2
        return dict(zip(tiles, zip(np.split(_VISIT_OPS[kind].ravel(), cuts),
                                   np.split(args.ravel(), cuts))))
