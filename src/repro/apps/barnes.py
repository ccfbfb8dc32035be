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
from .base import Application, PhaseBarriers

__all__ = ["BarnesApp"]

_BODY_DOUBLES = 8    # pos(3) + vel(3) + mass + pad = one line
_CELL_DOUBLES = 16   # line 0: com(3)+mass(+pad); line 1: 8 child slots

_POOL_LOCK = 0
_CELL_LOCK_BASE = 1


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
    def _force_on(self, body: int) -> tuple[np.ndarray, list[tuple[str, int]]]:
        """Barnes-Hut acceleration on ``body`` + the visit trace.

        The trace lists ('com', cell) for accepted cells, ('open', cell)
        for opened ones, and ('body', b) for direct interactions.
        """
        p = self.pos[body]
        acc = np.zeros(3)
        trace: list[tuple[str, int]] = []
        stack = [0]
        theta2 = self.theta * self.theta
        while stack:
            ci = stack.pop()
            cell = self.cells[ci]
            if cell.mass <= 0.0:
                continue
            d = cell.com - p
            r2 = float(d @ d) + self.eps2
            size = 2.0 * cell.half
            if size * size < theta2 * r2:
                trace.append(("com", ci))
                acc += cell.mass * d / (r2 * np.sqrt(r2))
                continue
            trace.append(("open", ci))
            for slot in cell.children:
                if slot is None:
                    continue
                if slot[0] == "c":
                    stack.append(slot[1])
                else:
                    b = slot[1]
                    if b == body:
                        continue
                    trace.append(("body", b))
                    db = self.pos[b] - p
                    rb2 = float(db @ db) + self.eps2
                    acc += self.mass[b] * db / (rb2 * np.sqrt(rb2))
        return acc, trace

    def direct_acceleration(self, body: int) -> np.ndarray:
        """O(n) reference acceleration for tests."""
        d = self.pos - self.pos[body]
        r2 = np.einsum("ij,ij->i", d, d) + self.eps2
        r2[body] = 1.0
        w = self.mass / (r2 * np.sqrt(r2))
        w[body] = 0.0
        return (w[:, None] * d).sum(axis=0)

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
            for b in mine:
                yield Read(self._body_addr(b))
                acc, trace = self._force_on(b)
                self.acc[b] = acc
                for kind, idx in trace:
                    if kind == "com":
                        yield Read(self._cell_line0(idx))
                        yield Work(60)
                    elif kind == "open":
                        yield Read(self._cell_line0(idx))
                        yield Read(self._cell_line1(idx))
                        yield Work(16)
                    else:
                        yield Read(self._body_addr(idx))
                        yield Work(60)
            yield Barrier(bar())

            # ---- phase 4: update ------------------------------------
            for b in mine:
                self.vel[b] += self.dt * self.acc[b]
                self.pos[b] += self.dt * self.vel[b]
                yield Read(self._body_addr(b))
                yield Work(40)
                yield Write(self._body_addr(b))
            yield Barrier(bar())
