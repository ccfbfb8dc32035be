"""FMM — adaptive fast multipole N-body method (SPLASH-2 FMM analog).

Paper characterization (Tables 2-3): 8 192 particles; communication like
Barnes (low-volume, unstructured, hierarchical) with an even *smaller*,
constant-size working set — the table of box multipole moments.  Figure 2:
no benefit from clustering with infinite caches; Figure 7: working-set
overlap benefits appear already at the 4 KB cache size (the FMM working set
sits near 4 KB at the paper's problem size).

We implement a uniform-tree 2-D FMM with monopole moments:

1. **upward pass** — leaf-box moments from resident particles, then level
   by level (barrier-separated) parents aggregate their four children
   (hierarchical communication);
2. **far field** — for every owned particle, walk its ancestor chain; at
   each level accumulate the moments of the standard *interaction list*
   (children of the parent's neighbours that are not neighbours) evaluated
   at the particle (reads of the shared, read-only moment table);
3. **near field** — exact particle-particle interactions with the 3×3
   neighbourhood of leaf boxes (reads of other processors' particle lines);
4. **update** — leapfrog integration of owned bodies, reflecting at the
   unit-square walls.

Together the interaction lists and the near field tile space exactly once,
so the computed acceleration approximates the direct O(n²) sum — the unit
tests check this quantitatively (monopole-only well-separated expansions
give a few percent error).

Substitution note (DESIGN.md): SPLASH-2 FMM is adaptive 2-D with high-order
multipoles; the uniform tree with monopole moments preserves the paper's
relevant properties — the hierarchical communication pattern, the tiny
read-shared moment working set, and real, testable physics.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import Barrier, Op, Read, Work, Write
from .base import (Application, PhaseBarriers, direct_acceleration,
                   softened_pull)

__all__ = ["FMMApp"]

_BODY_DOUBLES = 8   # pos(2) + vel(2) + mass + pad = one line
_BOX_DOUBLES = 8    # com(2) + mass + pad = one line


class FMMApp(Application):
    """Uniform-tree fast multipole method on the unit square.

    Parameters
    ----------
    n_particles:
        Body count (default 2 048; the paper used 8 192).
    levels:
        Leaf level of the tree; the leaf grid is ``2**levels`` per side
        (default 4 → 16×16 leaf boxes).
    n_steps:
        Time steps (default 2).
    """

    name = "fmm"
    #: squared Plummer softening length (0.02)
    eps2 = 0.02 * 0.02

    def __init__(self, config: MachineConfig, n_particles: int = 2048,
                 levels: int = 4, n_steps: int = 2, dt: float = 0.01,
                 seed: int = 12345) -> None:
        super().__init__(config, seed)
        if levels < 2:
            raise ValueError("levels must be >= 2 (interaction lists start "
                             "at level 2)")
        self.n = n_particles
        self.levels = levels
        self.n_steps = n_steps
        self.dt = dt
        self.pos = np.empty((n_particles, 2))
        self.vel = np.empty((n_particles, 2))
        self.mass = np.empty(n_particles)
        self.acc = np.zeros((n_particles, 2))
        # level ℓ grid is 2^ℓ × 2^ℓ; linear box ids with per-level offsets
        self._level_off = [0]
        for lv in range(levels + 1):
            self._level_off.append(self._level_off[-1] + (1 << lv) ** 2)
        self.n_boxes = self._level_off[-1]
        # moments[box] = (com_x, com_y, mass)
        self.moments = np.zeros((self.n_boxes, 3))
        self._bins_step = -1
        self.box_particles: list[list[int]] = []
        self._fields_step = -1
        #: per leaf: (interaction-list boxes of every level, bodies of the
        #: 3×3 neighbourhood), each in visit order
        self.leaf_lists: list[tuple[list[int], list[int]]] = []

    # ------------------------------------------------------------- geometry
    def box_id(self, level: int, i: int, j: int) -> int:
        return self._level_off[level] + i * (1 << level) + j

    def leaf_of(self, p: int) -> tuple[int, int]:
        g = 1 << self.levels
        i = min(int(self.pos[p, 0] * g), g - 1)
        j = min(int(self.pos[p, 1] * g), g - 1)
        return i, j

    def leaf_owner(self, i: int, j: int) -> int:
        """Leaf boxes are dealt to processors in contiguous row-major runs."""
        g = 1 << self.levels
        linear = i * g + j
        return linear * self.config.n_processors // (g * g)

    def box_owner(self, level: int, i: int, j: int) -> int:
        """Internal boxes belong to the owner of their first leaf descendant."""
        shift = self.levels - level
        return self.leaf_owner(i << shift, j << shift)

    def interaction_list(self, level: int, i: int, j: int) -> list[tuple[int, int]]:
        """Children of the parent's neighbours that are not my neighbours."""
        if level < 2:
            return []
        g = 1 << level
        pi, pj = i // 2, j // 2
        pg = g // 2
        out = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ni, nj = pi + di, pj + dj
                if not (0 <= ni < pg and 0 <= nj < pg):
                    continue
                for a in (0, 1):
                    for b in (0, 1):
                        ci, cj = 2 * ni + a, 2 * nj + b
                        if abs(ci - i) <= 1 and abs(cj - j) <= 1:
                            continue  # adjacent: handled further down / near
                        out.append((ci, cj))
        return out

    # ---------------------------------------------------------------- setup
    def setup(self) -> None:
        rng = self.rng(0)
        raw = rng.uniform(0.02, 0.98, size=(self.n, 2))
        # sort by leaf box so contiguous particle ranges are spatially local
        g = 1 << self.levels
        keys = (np.minimum((raw[:, 0] * g).astype(int), g - 1) * g
                + np.minimum((raw[:, 1] * g).astype(int), g - 1))
        order = np.argsort(keys, kind="stable")
        self.pos[:] = raw[order]
        self.vel[:] = rng.normal(0.0, 0.01, size=(self.n, 2))
        self.mass[:] = rng.uniform(0.5, 1.5, self.n) / self.n
        self.rbodies = self.space.allocate("fmm.bodies", self.n * _BODY_DOUBLES)
        self.rboxes = self.space.allocate("fmm.boxes",
                                          self.n_boxes * _BOX_DOUBLES)
        self.place_partitions(self.rbodies)

    # ----------------------------------------------------------- numerics
    def _ensure_bins(self, step: int) -> None:
        if self._bins_step == step:
            return
        g = 1 << self.levels
        self.box_particles = [[] for _ in range(g * g)]
        for p in range(self.n):
            i, j = self.leaf_of(p)
            self.box_particles[i * g + j].append(p)
        self._bins_step = step

    def _leaf_moment(self, i: int, j: int) -> None:
        g = 1 << self.levels
        bid = self.box_id(self.levels, i, j)
        plist = self.box_particles[i * g + j]
        if not plist:
            self.moments[bid] = 0.0
            return
        ms = self.mass[plist]
        m = float(ms.sum())
        com = (ms[:, None] * self.pos[plist]).sum(axis=0) / m
        self.moments[bid] = (com[0], com[1], m)

    def _internal_moment(self, level: int, i: int, j: int) -> None:
        bid = self.box_id(level, i, j)
        m = 0.0
        com = np.zeros(2)
        for a in (0, 1):
            for b in (0, 1):
                cid = self.box_id(level + 1, 2 * i + a, 2 * j + b)
                cm = self.moments[cid, 2]
                m += cm
                com += cm * self.moments[cid, :2]
        if m > 0.0:
            self.moments[bid] = (com[0] / m, com[1] / m, m)
        else:
            self.moments[bid] = 0.0

    def far_boxes(self, i: int, j: int) -> list[int]:
        """Interaction-list box ids of leaf ``(i, j)`` and its ancestors,
        leaf level first: the far field's visit order."""
        boxes: list[int] = []
        for level in range(self.levels, 1, -1):
            boxes += [self.box_id(level, ci, cj)
                      for ci, cj in self.interaction_list(level, i, j)]
            i //= 2
            j //= 2
        return boxes

    def near_bodies(self, i: int, j: int) -> list[int]:
        """Bodies of leaf ``(i, j)``'s 3×3 neighbourhood (itself included),
        in the near field's visit order."""
        g = 1 << self.levels
        out: list[int] = []
        for ni in (i - 1, i, i + 1):
            for nj in (j - 1, j, j + 1):
                if 0 <= ni < g and 0 <= nj < g:
                    out += self.box_particles[ni * g + nj]
        return out

    def _ensure_fields(self, step: int) -> None:
        """Every body's acceleration for this step (idempotent).

        The lists are pure geometry, so the bodies of one leaf share them:
        each leaf is one batch of (body, source) rows in visit order.  The
        far field (boxes with mass) and the near field (neighbour bodies
        but the body itself) are accumulated apart, then added.
        """
        if self._fields_step == step:
            return
        g = 1 << self.levels
        far = np.zeros((self.n, 2))
        near = np.zeros((self.n, 2))
        self.leaf_lists = []
        for leaf in range(g * g):
            boxes = self.far_boxes(*divmod(leaf, g))
            bodies = self.near_bodies(*divmod(leaf, g))
            self.leaf_lists.append((boxes, bodies))
            targets = np.array(self.box_particles[leaf], dtype=np.int64)
            if not targets.size:
                continue
            src = np.array(boxes, dtype=np.int64)
            src = src[self.moments[src, 2] > 0.0]
            self._pull_into(far, targets, self.moments[src, :2],
                            self.moments[src, 2], np.full(src.size, -1))
            src = np.array(bodies, dtype=np.int64)
            self._pull_into(near, targets, self.pos[src], self.mass[src], src)
        self.acc[:] = far + near
        self._fields_step = step

    def _pull_into(self, acc: np.ndarray, targets: np.ndarray,
                   src_pos: np.ndarray, src_mass: np.ndarray,
                   src_body: np.ndarray) -> None:
        """Add every source's pull on every target body to ``acc``,
        sources in order; ``src_body`` is the body a source is (-1 for a
        box), so no body pulls itself."""
        pos = self.pos[targets]
        who, k = np.nonzero(src_body[None, :] != targets[:, None])
        _, pull = softened_pull(src_mass[k], src_pos[k] - pos[who], self.eps2)
        np.add.at(acc, targets[who], pull)

    direct_acceleration = direct_acceleration

    # ------------------------------------------------------------- program
    def _box_addr(self, bid: int) -> int:
        return self.rboxes.element(bid * _BOX_DOUBLES)

    def _body_addr(self, b: int) -> int:
        return self.rbodies.element(b * _BODY_DOUBLES)

    def program(self, pid: int) -> Iterator[Op]:
        bar = PhaseBarriers()
        mine = self.partition_slice(self.n, pid)
        g = 1 << self.levels
        yield Barrier(bar())

        for step in range(self.n_steps):
            self._ensure_bins(step)
            # ---- upward: leaf moments -------------------------------
            for i in range(g):
                for j in range(g):
                    if self.leaf_owner(i, j) != pid:
                        continue
                    self._leaf_moment(i, j)
                    for q in self.box_particles[i * g + j]:
                        yield Read(self._body_addr(q))
                    yield Work(4 * max(len(self.box_particles[i * g + j]), 1))
                    yield Write(self._box_addr(self.box_id(self.levels, i, j)))
            yield Barrier(bar())
            # ---- upward: internal levels, children before parents ----
            for level in range(self.levels - 1, -1, -1):
                lg = 1 << level
                for i in range(lg):
                    for j in range(lg):
                        if self.box_owner(level, i, j) != pid:
                            continue
                        self._internal_moment(level, i, j)
                        for a in (0, 1):
                            for b in (0, 1):
                                yield Read(self._box_addr(
                                    self.box_id(level + 1, 2 * i + a, 2 * j + b)))
                        yield Work(12)
                        yield Write(self._box_addr(self.box_id(level, i, j)))
                yield Barrier(bar())

            # ---- far field + near field ------------------------------
            self._ensure_fields(step)
            for p in mine:
                yield Read(self._body_addr(p))
                i, j = self.leaf_of(p)
                boxes, bodies = self.leaf_lists[i * g + j]
                for bid in boxes:
                    yield Read(self._box_addr(bid))
                yield Work(30 * len(boxes))
                for q in bodies:
                    if q != p:
                        yield Read(self._body_addr(q))
                yield Work(30 * (len(bodies) - 1))
            yield Barrier(bar())

            # ---- update ----------------------------------------------
            for p in mine:
                self.vel[p] += self.dt * self.acc[p]
                self.pos[p] += self.dt * self.vel[p]
                for ax in range(2):
                    if self.pos[p, ax] < 0.0:
                        self.pos[p, ax] = -self.pos[p, ax]
                        self.vel[p, ax] = -self.vel[p, ax]
                    elif self.pos[p, ax] > 1.0:
                        self.pos[p, ax] = 2.0 - self.pos[p, ax]
                        self.vel[p, ax] = -self.vel[p, ax]
                yield Read(self._body_addr(p))
                yield Work(20)
                yield Write(self._body_addr(p))
            yield Barrier(bar())
