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
from ..sim.program import OP_READ, OP_WORK, OP_WRITE, Barrier, Op
from .base import (Application, PhaseBarriers, direct_acceleration,
                   element_addrs, softened_pull)

__all__ = ["FMMApp"]

_BODY_DOUBLES = 8   # pos(2) + vel(2) + mass + pad = one line
_BOX_DOUBLES = 8    # com(2) + mass + pad = one line

#: what a slot of an op template does (:meth:`FMMApp._ops`), and its op
_BOX, _WORK, _BODY, _STORE = 0, 1, 2, 3
_KIND_OPS = np.array([OP_READ, OP_WORK, OP_READ, OP_WRITE])


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

    def leaf_owner(self, i: int, j: int) -> int:
        """Leaf boxes are dealt to processors in contiguous row-major runs."""
        g = 1 << self.levels
        linear = i * g + j
        return linear * self.config.n_processors // (g * g)

    def owned_leaves(self, pid: int) -> range:
        """The row-major numbers ``i * g + j`` of the leaves whose
        :meth:`leaf_owner` is ``pid``: a contiguous run."""
        g2, n = 1 << 2 * self.levels, self.config.n_processors
        return range(-(-pid * g2 // n), -(-(pid + 1) * g2 // n))

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
    def place(self) -> None:
        self.rbodies = self.space.allocate("fmm.bodies", self.n * _BODY_DOUBLES)
        self.rboxes = self.space.allocate("fmm.boxes",
                                          self.n_boxes * _BOX_DOUBLES)
        self.place_partitions(self.rbodies)

    def build_input(self) -> None:
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

    # ----------------------------------------------------------- numerics
    def _ensure_bins(self, step: int) -> None:
        """Every body's leaf (``_leaf``, linear, from its position) and
        every leaf's bodies (``box_particles``) for this step."""
        if self._bins_step == step:
            return
        g = 1 << self.levels
        i, j = np.minimum((self.pos * g).astype(np.int64), g - 1).T
        self._leaf = i * g + j
        self.box_particles = [bodies.tolist() for bodies in np.split(
            np.argsort(self._leaf, kind="stable"),
            np.cumsum(np.bincount(self._leaf, minlength=g * g))[:-1])]
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
    def _ops(self, ids, kind, edges) -> tuple:
        """A batch of slots, each by its ``kind`` a read of box or body
        ``ids``, a write of box ``ids``, or WORK of ``ids`` cycles."""
        ids, kind = np.asarray(ids), np.asarray(kind)
        body, box = kind == _BODY, (kind == _BOX) | (kind == _STORE)
        ids[body] = element_addrs(self.rbodies, ids[body] * _BODY_DOUBLES)
        ids[box] = element_addrs(self.rboxes, ids[box] * _BOX_DOUBLES)
        return _KIND_OPS[kind], ids, np.asarray(edges).tolist()

    def _upward_ops(self, level: int) -> tuple:
        """Every processor's ops of one upward level: per box it owns,
        in row-major order, a read of each child (the resident bodies of
        a leaf, WORK 4 a body and at least 4; else the four child boxes,
        WORK 12), then a write of the box."""
        ids, kind, ends, owner, lg = [], [], [0], [], 1 << level
        for i, j in ((i, j) for i in range(lg) for j in range(lg)):
            if level == self.levels:
                kids = self.box_particles[i * lg + j]
                ids += [*kids, 4 * max(len(kids), 1)]
                kind += [_BODY] * len(kids)
            else:
                ids += [self.box_id(level + 1, 2 * i + a, 2 * j + b)
                        for a in (0, 1) for b in (0, 1)] + [12]
                kind += [_BOX] * 4
            ids.append(self.box_id(level, i, j))
            kind += [_WORK, _STORE]
            ends.append(len(ids))
            owner.append(self.box_owner(level, i, j))
        return self._ops(ids, kind, np.take(ends, np.searchsorted(
            owner, np.arange(self.config.n_processors + 1))))

    def _field_ops(self) -> tuple:
        """Every processor's field ops: per body it owns, a read of it,
        of each box of its leaf's far list, WORK 30 a box, a read of
        each other body of its leaf's near list, WORK 30 a body.  A
        leaf's lists are one template, its body's own slot first, that
        every body of the leaf takes, its own place in the list
        dropped."""
        ids, kind, size = [], [], []
        for boxes, bodies in self.leaf_lists:
            ids += [-1, *boxes, 30 * len(boxes), *bodies,
                    30 * (len(bodies) - 1)]
            kind += [_BODY, *[_BOX] * len(boxes), _WORK,
                     *[_BODY] * len(bodies), _WORK]
            size.append(len(boxes) + len(bodies) + 3)
        lens = np.array(size)[self._leaf]
        row = np.cumsum(lens) - lens
        who = np.repeat(np.arange(self.n), lens)
        at = np.arange(len(who)) + np.repeat(
            (np.cumsum(size) - size)[self._leaf] - row, lens)
        ids, kind = np.array(ids)[at], np.array(kind)[at]
        keep = (ids != who) | (kind != _BODY)
        ids[row] = np.arange(self.n)
        return self._ops(ids[keep], kind[keep], np.append(0, np.cumsum(
            lens - 1))[self.partition_edges(self.n)])

    def _leapfrog(self, mine: range) -> None:
        """Advance bodies ``mine`` one step, reflecting each coordinate
        that left the unit square (and its velocity) at the wall it
        crossed; elementwise, so with the bits of one body at a time."""
        lo, hi = mine.start, mine.stop
        self.vel[lo:hi] += self.dt * self.acc[lo:hi]
        self.pos[lo:hi] += self.dt * self.vel[lo:hi]
        pos, vel = self.pos[lo:hi], self.vel[lo:hi]
        low, high = pos < 0.0, pos > 1.0
        pos[...] = np.where(low, -pos, np.where(high, 2.0 - pos, pos))
        vel[...] = np.where(low | high, -vel, vel)

    def program(self, pid: int) -> Iterator[Op]:
        bar = PhaseBarriers()
        mine = self.partition_slice(self.n, pid)
        g = 1 << self.levels
        yield Barrier(bar())

        for step in range(self.n_steps):
            self._ensure_bins(step)
            # ---- upward: leaf moments -------------------------------
            for leaf in self.owned_leaves(pid):
                self._leaf_moment(*divmod(leaf, g))
            yield from self.shared_batch(("up", step, self.levels), pid,
                                         lambda: self._upward_ops(self.levels))
            yield Barrier(bar())
            # ---- upward: internal levels, children before parents ----
            for level in range(self.levels - 1, -1, -1):
                lg = 1 << level
                for i in range(lg):
                    for j in range(lg):
                        if self.box_owner(level, i, j) == pid:
                            self._internal_moment(level, i, j)
                yield from self.shared_batch(
                    ("up", step, level), pid, lambda: self._upward_ops(level))
                yield Barrier(bar())

            # ---- far field + near field ------------------------------
            self._ensure_fields(step)
            yield from self.shared_batch(("field", step), pid,
                                         self._field_ops)
            yield Barrier(bar())

            # ---- update ----------------------------------------------
            self._leapfrog(mine)
            yield from self.shared_batch(
                ("update", step), pid, lambda: self.update_ops(
                    self.rbodies, _BODY_DOUBLES, self.n, 20))
            yield Barrier(bar())
