"""Barnes — hierarchical N-body simulation (SPLASH-2 BARNES analog).

Paper characterization (Tables 2-3): 8 192 particles, θ = 1.0; low-volume
unstructured-but-hierarchical communication; a small O(log n) working set
(the top of the octree) that *overlaps heavily* between processors because
everyone traverses the same upper tree levels.  Figure 2: essentially no
communication benefit from clustering with infinite caches; Figure 6: large
benefit from working-set overlap once per-processor caches are smaller than
the (shared) traversal working set.

Each time step:

1. **tree build** — processors insert their own bodies into a shared
   octree.  Numerically each insertion is atomic (the final region octree
   is unique for a given body set, so insertion interleaving does not
   change the result); the reference stream records the descent-path reads,
   the per-leaf lock, the modified-cell writes, and the lock-protected cell
   pool bump — SPLASH-2's locking structure.
2. *barrier*; **centres of mass** — an upward pass computes every cell's
   mass and COM; cells are dealt round-robin across processors.
3. *barrier*; **forces** — every processor walks the octree once per owned
   body with the θ opening criterion, reading cell COM lines (the shared,
   read-only working set) and body lines for direct interactions.
4. *barrier*; **update** — leapfrog integration of owned bodies.

The physics is real: the unit tests compare Barnes-Hut accelerations
against an O(n²) direct sum.

Layout: body records are one 64 B line each, partitioned and placed at
their owner's cluster; cell records are two lines (COM+mass line, children
line) in a shared pool, round-robin placed (the top of the tree has no
natural owner).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import Barrier, Lock, Op, Read, Unlock, Work, Write
from .base import (Application, PhaseBarriers, direct_acceleration,
                   softened_pull)

__all__ = ["BarnesApp"]

_BODY_DOUBLES = 8    # pos(3) + vel(3) + mass + pad = one line
_CELL_DOUBLES = 16   # line 0: com(3)+mass(+pad); line 1: 8 child slots

_POOL_LOCK = 0
_CELL_LOCK_BASE = 1

_COM, _OPEN, _BODY = 0, 1, 2  # force-walk visit kinds
_BATCH = 512                  # bodies walked together


class _Cell:
    """One octree internal cell (children: None | ('b', body) | ('c', cell))."""

    __slots__ = ("center", "half", "children", "mass", "com")

    def __init__(self, center: np.ndarray, half: float) -> None:
        self.center = center
        self.half = half
        self.children: list = [None] * 8
        self.mass = 0.0
        self.com = np.zeros(3)


class BarnesApp(Application):
    """Barnes-Hut galaxy simulation.

    Parameters
    ----------
    n_particles:
        Body count (default 2 048; the paper used 8 192).
    theta:
        Opening criterion (default 1.0, the paper's value).
    n_steps:
        Time steps (default 2).
    """

    name = "barnes"
    # the one recorded app: ``_insert(b)`` reads the tree as the other
    # processors have left it, so the build-phase streams depend on
    # simulated time
    stream_invariant = False

    def __init__(self, config: MachineConfig, n_particles: int = 2048,
                 theta: float = 1.0, n_steps: int = 2, dt: float = 0.01,
                 softening: float = 0.05, seed: int = 12345) -> None:
        super().__init__(config, seed)
        self.n = n_particles
        self.theta = theta
        self.n_steps = n_steps
        self.dt = dt
        self.eps2 = softening * softening
        self.pos = np.empty((n_particles, 3))
        self.vel = np.empty((n_particles, 3))
        self.mass = np.empty(n_particles)
        self.acc = np.zeros((n_particles, 3))
        self.cells: list[_Cell] = []
        self._root: _Cell | None = None
        self._tree_step = -1
        self._coms_step = -1
        self._forces_step = -1
        self.max_cells = max(4 * n_particles, 64)

    # ---------------------------------------------------------------- setup
    def setup(self) -> None:
        rng = self.rng(0)
        # uniform ball of bodies with small random velocities
        v = rng.normal(size=(self.n, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        radii = rng.uniform(0.05, 1.0, self.n) ** (1 / 3)
        pos = 0.5 + 0.4 * v * radii[:, None]
        # Sort bodies in Morton (octree) order so contiguous index ranges
        # are spatially local — the role SPLASH-2's costzones partitioning
        # plays.  Without it every processor's traversal covers the whole
        # tree and communication is wildly overstated.
        grid = np.minimum((pos * 16).astype(int), 15)
        morton = np.zeros(self.n, dtype=np.int64)
        for bit in range(4):
            for ax in range(3):
                morton |= ((grid[:, ax] >> bit) & 1).astype(np.int64) \
                    << (3 * bit + ax)
        order = np.argsort(morton, kind="stable")
        self.pos[:] = pos[order]
        self.vel[:] = rng.normal(0.0, 0.01, size=(self.n, 3))
        self.mass[:] = rng.uniform(0.5, 1.5, self.n) / self.n
        self.rbodies = self.space.allocate("barnes.bodies",
                                           self.n * _BODY_DOUBLES)
        self.rcells = self.space.allocate("barnes.cells",
                                          self.max_cells * _CELL_DOUBLES)
        self.place_partitions(self.rbodies)

    # ---------------------------------------------------------- tree builds
    def _new_cell(self, center: np.ndarray, half: float) -> int:
        if len(self.cells) >= self.max_cells:
            raise RuntimeError("barnes cell pool exhausted; raise max_cells")
        self.cells.append(_Cell(center, half))
        return len(self.cells) - 1

    def _reset_tree(self) -> None:
        self.cells.clear()
        lo = self.pos.min(axis=0) - 1e-9
        hi = self.pos.max(axis=0) + 1e-9
        center = (lo + hi) / 2
        half = float((hi - lo).max() / 2) or 1.0
        self._new_cell(center.copy(), half)

    @staticmethod
    def _octant(cell: _Cell, p: np.ndarray) -> int:
        return ((p[0] > cell.center[0]) * 4 + (p[1] > cell.center[1]) * 2
                + (p[2] > cell.center[2]) * 1)

    def _child_center(self, cell: _Cell, o: int) -> np.ndarray:
        off = np.array([1 if o & 4 else -1, 1 if o & 2 else -1,
                        1 if o & 1 else -1], dtype=float)
        return cell.center + off * (cell.half / 2)

    def _insert(self, body: int) -> tuple[list[int], list[int], int]:
        """Atomically insert ``body``; return (path cells, new cells, locked
        cell) for the reference stream."""
        path: list[int] = []
        created: list[int] = []
        ci = 0
        p = self.pos[body]
        while True:
            path.append(ci)
            cell = self.cells[ci]
            o = self._octant(cell, p)
            slot = cell.children[o]
            if slot is None:
                cell.children[o] = ("b", body)
                return path, created, ci
            if slot[0] == "c":
                ci = slot[1]
                continue
            # occupied by a body: split this octant until they separate
            other = slot[1]
            nci = self._new_cell(self._child_center(cell, o), cell.half / 2)
            created.append(nci)
            cell.children[o] = ("c", nci)
            # reinsert the displaced body into the fresh cell, then loop
            sub = self.cells[nci]
            so = self._octant(sub, self.pos[other])
            sub.children[so] = ("b", other)
            ci = nci

    def _ensure_tree(self, step: int) -> None:
        """Reset the pool for a new step's build (idempotent per step)."""
        if self._tree_step != step:
            self._reset_tree()
            self._tree_step = step
            self._coms_step = -1
            self._forces_step = -1

    def _ensure_coms(self, step: int) -> None:
        """Upward mass/COM pass over the finished tree (idempotent)."""
        if self._coms_step == step:
            return
        for cell in reversed(self.cells):  # children always after parents
            m = 0.0
            com = np.zeros(3)
            for slot in cell.children:
                if slot is None:
                    continue
                if slot[0] == "b":
                    bm = self.mass[slot[1]]
                    m += bm
                    com += bm * self.pos[slot[1]]
                else:
                    sub = self.cells[slot[1]]
                    m += sub.mass
                    com += sub.mass * sub.com
            cell.mass = m
            if m > 0.0:
                cell.com = com / m
        self._coms_step = step

    # ------------------------------------------------------------- force
    def _ensure_forces(self, step: int) -> None:
        """Every body's acceleration and visit trace for this step
        (idempotent), walked :data:`_BATCH` bodies at a time.

        ``self._visits`` is ``(kind, idx, first)``: body ``b``'s visits are
        ``kind[first[b]:first[b + 1]]`` (``_COM`` accepted cell, ``_OPEN``
        opened cell, ``_BODY`` direct interaction), each with its cell or
        body index at the same position of ``idx``.  The program drops it
        once every processor is past the phase.
        """
        if self._forces_step == step:
            return
        self._ensure_coms(step)
        kinds, idxs, counts = [], [], []
        for lo in range(0, self.n, _BATCH):
            hi = min(lo + _BATCH, self.n)
            self.acc[lo:hi], kind, idx, count = self._walk(lo, hi)
            kinds.append(kind)
            idxs.append(idx)
            counts.append(count)
        first = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts), out=first[1:])
        self._visits = (np.concatenate(kinds), np.concatenate(idxs),
                        first.tolist())
        self._forces_step = step

    def _visits_of(self, b: int) -> Iterator[tuple[int, int]]:
        """Body ``b``'s ``(kind, index)`` visits in this step's walk."""
        kind, idx, first = self._visits
        return zip(kind[first[b]:first[b + 1]].tolist(),
                   idx[first[b]:first[b + 1]].tolist())

    def _walk(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
        """The θ walk of bodies ``lo..hi-1``, all of them at each cell.

        Cells are taken in the order one body's depth-first walk takes
        them (cell children pushed in slot order, so taken in reverse),
        each with the batch's bodies that opened its parent.  So every
        body meets its visits in that walk's order — a cell's record, then
        the cell's body children in slot order, then its cell children's
        subtrees in reverse slot order — at any tree depth, and its pulls
        are added in that order.  Returns ``(acc, kind, idx, count)``:
        the visits grouped by body by a stable sort, which keeps each
        body's order, and each body's visit count.
        """
        theta2 = self.theta * self.theta
        p = self.pos[lo:hi]
        acc = np.zeros((hi - lo, 3))
        whos, kinds, idxs = [], [], []
        visitors = {0: np.arange(hi - lo, dtype=np.int32)}
        stack = [0]
        while stack:
            ci = stack.pop()
            cell = self.cells[ci]
            who = visitors.pop(ci)
            if cell.mass <= 0.0:
                continue
            size = 2.0 * cell.half
            r2, pull = softened_pull(cell.mass, cell.com - p[who], self.eps2)
            far = size * size < theta2 * r2
            acc[who[far]] += pull[far]
            whos.append(who)
            kinds.append(np.where(far, _COM, _OPEN).astype(np.int8))
            idxs.append(np.full(who.size, ci, dtype=np.int32))
            who = who[~far]
            if not who.size:
                continue
            bodies = []
            for slot in cell.children:
                if slot is None:
                    continue
                if slot[0] == "c":
                    visitors[slot[1]] = who
                    stack.append(slot[1])
                else:
                    bodies.append(slot[1])
            if not bodies:
                continue
            # (opener, body child) pairs, opener-major; no body pulls itself
            bodies = np.array(bodies, dtype=np.int32)
            rows, k = np.nonzero(who[:, None] + lo != bodies)
            src = bodies[k]
            opener = who[rows]
            _, pull = softened_pull(self.mass[src], self.pos[src] - p[opener],
                                    self.eps2)
            np.add.at(acc, opener, pull)
            whos.append(opener)
            kinds.append(np.full(rows.size, _BODY, dtype=np.int8))
            idxs.append(src)
        who = np.concatenate(whos)
        order = np.argsort(who, kind="stable")
        return (acc, np.concatenate(kinds)[order], np.concatenate(idxs)[order],
                np.bincount(who, minlength=hi - lo))

    direct_acceleration = direct_acceleration

    # ------------------------------------------------------------- program
    def _cell_line0(self, ci: int) -> int:
        return self.rcells.element(ci * _CELL_DOUBLES)

    def _cell_line1(self, ci: int) -> int:
        return self.rcells.element(ci * _CELL_DOUBLES + 8)

    def _body_addr(self, b: int) -> int:
        return self.rbodies.element(b * _BODY_DOUBLES)

    def program(self, pid: int) -> Iterator[Op]:
        bar = PhaseBarriers()
        mine = self.partition_slice(self.n, pid)
        yield Barrier(bar())

        for step in range(self.n_steps):
            # ---- phase 1: tree build --------------------------------
            self._ensure_tree(step)
            for b in mine:
                yield Read(self._body_addr(b))
                path, created, locked = self._insert(b)
                for ci in path:
                    yield Read(self._cell_line1(ci))
                if created:
                    yield Lock(_POOL_LOCK)
                    yield Work(2 * len(created))
                    yield Unlock(_POOL_LOCK)
                yield Lock(_CELL_LOCK_BASE + locked)
                for ci in created:
                    yield Write(self._cell_line1(ci))
                yield Write(self._cell_line1(locked))
                yield Unlock(_CELL_LOCK_BASE + locked)
            yield Barrier(bar())

            # ---- phase 2: centres of mass ---------------------------
            self._ensure_coms(step)
            n_cells = len(self.cells)
            for ci in range(pid, n_cells, self.config.n_processors):
                yield Read(self._cell_line1(ci))
                for slot in self.cells[ci].children:
                    if slot is None:
                        continue
                    if slot[0] == "c":
                        yield Read(self._cell_line0(slot[1]))
                    else:
                        yield Read(self._body_addr(slot[1]))
                yield Work(40)
                yield Write(self._cell_line0(ci))
            yield Barrier(bar())

            # ---- phase 3: forces ------------------------------------
            self._ensure_forces(step)
            for b in mine:
                yield Read(self._body_addr(b))
                for kind, idx in self._visits_of(b):
                    if kind == _COM:
                        yield Read(self._cell_line0(idx))
                        yield Work(60)
                    elif kind == _OPEN:
                        yield Read(self._cell_line0(idx))
                        yield Read(self._cell_line1(idx))
                        yield Work(16)
                    else:
                        yield Read(self._body_addr(idx))
                        yield Work(60)
            yield Barrier(bar())
            self._visits = None  # every processor is done with it

            # ---- phase 4: update ------------------------------------
            for b in mine:
                self.vel[b] += self.dt * self.acc[b]
                self.pos[b] += self.dt * self.vel[b]
                yield Read(self._body_addr(b))
                yield Work(40)
                yield Write(self._body_addr(b))
            yield Barrier(bar())
