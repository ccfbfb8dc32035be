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
(:meth:`VolrendApp.tile_ops`) are a pure function of the tile — so the app
is captured once, tile by tile, and the queue is replayed as a ``TASK`` op
(:class:`~repro.apps.base.TileQueueApplication`).

The tests check the render against a brute-force march (octree skipping
must not change the image) and basic anatomy (head opaque, corners empty).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import Op, Read, Work, Write
from .base import TileQueueApplication

__all__ = ["VolrendApp"]

_NODE_DOUBLES = 8  # (min, max, child info) — one line per octree node


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
        self._node_level_off = np.cumsum(
            [0] + [a.size for a in self.minmax]).tolist()

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

    # ----------------------------------------------------------- numerics
    def _voxel_index(self, x: float, y: float, z: float) -> tuple[int, int, int]:
        n = self.nv
        return (min(int(x * n), n - 1), min(int(y * n), n - 1),
                min(int(z * n), n - 1))

    def march(self, px: int, py: int, use_octree: bool = True
              ) -> tuple[float, list[tuple[str, int]]]:
        """March one orthographic ray (+z) through the volume.

        Returns the composited intensity and the visit trace:
        ('node', node_id) for octree tests, ('voxel', linear_index) for
        density samples.
        """
        x = (px + 0.5) / self.width
        y = (py + 0.5) / self.height
        n = self.nv
        b = self.block
        nb = n // b
        step = 1.0 / n
        opacity = 0.0
        intensity = 0.0
        trace: list[tuple[str, int]] = []
        z = step / 2
        # trilinear lattice coordinates for (x, y): fixed along a +z ray
        fx = x * n - 0.5
        fy = y * n - 0.5
        i0 = min(max(int(fx), 0), n - 2)
        j0 = min(max(int(fy), 0), n - 2)
        wx = min(max(fx - i0, 0.0), 1.0)
        wy = min(max(fy - j0, 0.0), 1.0)
        vol = self.volume
        while z < 1.0 and opacity < self.cutoff:
            i, j, k = self._voxel_index(x, y, z)
            if use_octree:
                bi, bj, bk = i // b, j // b, k // b
                node_id = (bi * nb + bj) * nb + bk
                trace.append(("node", node_id))
                if self.minmax[0][bi, bj, bk] <= self.threshold:
                    # skip to the far face of this transparent block
                    z = (bk + 1) * b * step + step / 2
                    continue
            # Trilinear sample over the 8 surrounding voxels — what real
            # volume renderers do, and what gives adjacent rays their
            # *shared* working set (the 2×2 voxel columns straddle rays).
            fz = z * n - 0.5
            k0 = min(max(int(fz), 0), n - 2)
            wz = min(max(fz - k0, 0.0), 1.0)
            c00 = vol[i0, j0, k0] * (1 - wz) + vol[i0, j0, k0 + 1] * wz
            c01 = vol[i0, j0 + 1, k0] * (1 - wz) + vol[i0, j0 + 1, k0 + 1] * wz
            c10 = vol[i0 + 1, j0, k0] * (1 - wz) + vol[i0 + 1, j0, k0 + 1] * wz
            c11 = (vol[i0 + 1, j0 + 1, k0] * (1 - wz)
                   + vol[i0 + 1, j0 + 1, k0 + 1] * wz)
            d = ((c00 * (1 - wy) + c01 * wy) * (1 - wx)
                 + (c10 * (1 - wy) + c11 * wy) * wx)
            # one read per distinct cache line: the 4 (i, j) voxel columns
            trace.append(("voxel", (i0 * n + j0) * n + k0))
            trace.append(("voxel", (i0 * n + j0 + 1) * n + k0))
            trace.append(("voxel", ((i0 + 1) * n + j0) * n + k0))
            trace.append(("voxel", ((i0 + 1) * n + j0 + 1) * n + k0))
            if d > self.threshold:
                alpha = min(d * 0.5, 1.0)
                intensity += (1.0 - opacity) * alpha * d
                opacity += (1.0 - opacity) * alpha
            z += step
        return intensity, trace

    # ------------------------------------------------------------- program
    def tile_ops(self, tile: int) -> Iterator[Op]:
        """March the tile's rays; one read per octree test and per voxel
        column sampled, one write per pixel."""
        vox_addr = self.rvolume.element
        node_addr = self.rnodes.element
        pix_addr = self.rpixels.element
        for py, px in self.tile_pixels(tile):
            intensity, visits = self.march(px, py)
            self.image[py, px] = intensity
            for kind, idx in visits:
                if kind == "node":
                    yield Read(node_addr(idx * _NODE_DOUBLES))
                    yield Work(12)
                else:
                    yield Read(vox_addr(idx))
                    yield Work(8)
            yield Work(30)
            yield Write(pix_addr(self._pixel_elem(py, px)))
