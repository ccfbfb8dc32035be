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

from typing import Iterable, Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import (OP_READ, OP_WORK, OP_WRITE, Barrier, Lock, Op,
                           Read, Unlock, Work, Write)
from .base import (Application, PhaseBarriers, direct_acceleration,
                   element_addrs, softened_pull, table_parts)

__all__ = ["BarnesApp"]

_BODY_DOUBLES = 8    # pos(3) + vel(3) + mass + pad = one line
_CELL_DOUBLES = 16   # line 0: com(3)+mass(+pad); line 1: 8 child slots

_POOL_LOCK = 0
_CELL_LOCK_BASE = 1

_COM, _OPEN, _BODY = 0, 1, 2  # force-walk visit kinds
_BATCH = 512                  # bodies walked together

#: a cell's centre-of-mass ops: read its children line, read each
#: child's record (a cell's COM line or a body), combine (WORK 40),
#: write its COM line
_COM_OPS = np.array([OP_READ] * 9 + [OP_WORK, OP_WRITE])
#: per force-walk row kind (_COM, _OPEN, _BODY, then a body's own
#: record, read before its walk), its ops and which of them it has:
#: read the COM line, then WORK 60 (accepted) or read the children line
#: and WORK 16 (opened); read a body and WORK 60 (direct interaction)
_FORCE_OPS = np.array([[OP_READ, OP_WORK, OP_WORK], [OP_READ, OP_READ, OP_WORK],
                       [OP_READ, OP_WORK, OP_WORK], [OP_READ, OP_WORK, OP_WORK]])
_FORCE_KEEP = np.array([[1, 1, 0], [1, 1, 1], [1, 1, 0], [1, 0, 0]], dtype=bool)


class _Cell:
    """One octree internal cell (children: None | ('b', body) | ('c', cell));
    its centre a tuple of python floats, so the build compares no numpy
    scalars."""

    __slots__ = ("center", "half", "children", "mass", "com")

    def __init__(self, center: tuple[float, ...], half: float) -> None:
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
    # simulated time (and only they: ``timed_barriers``)
    stream_invariant = False
    #: squared Plummer softening length (0.05)
    eps2 = 0.05 * 0.05

    def __init__(self, config: MachineConfig, n_particles: int = 2048,
                 theta: float = 1.0, n_steps: int = 2, dt: float = 0.01,
                 seed: int = 12345) -> None:
        super().__init__(config, seed)
        self.n = n_particles
        self.theta = theta
        self.n_steps = n_steps
        # the start barrier, then four a step: the last step's build ends
        # at barrier 4 * n_steps - 2, and what follows it is settled at
        # barriers (centres of mass, forces, update)
        self.timed_barriers = max(4 * n_steps - 2, 0)
        self.dt = dt
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
    def _new_cell(self, center: tuple[float, ...], half: float) -> int:
        if len(self.cells) >= self.max_cells:
            raise RuntimeError("barnes cell pool exhausted; raise max_cells")
        self.cells.append(_Cell(center, half))
        return len(self.cells) - 1

    def _reset_tree(self) -> None:
        self.cells.clear()
        lo = self.pos.min(axis=0) - 1e-9
        hi = self.pos.max(axis=0) + 1e-9
        half = float((hi - lo).max() / 2) or 1.0
        self._new_cell(tuple(((lo + hi) / 2).tolist()), half)
        #: the positions the build inserts, as python floats
        self._pos_list = self.pos.tolist()

    @staticmethod
    def _octant(cell: _Cell, p: list[float]) -> int:
        x, y, z = cell.center
        return (p[0] > x) * 4 + (p[1] > y) * 2 + (p[2] > z)

    @staticmethod
    def _child_center(cell: _Cell, o: int) -> tuple[float, ...]:
        (x, y, z), step = cell.center, cell.half / 2
        return (x + step if o & 4 else x - step,
                y + step if o & 2 else y - step,
                z + step if o & 1 else z - step)

    def _insert(self, body: int) -> tuple[list[int], list[int], int]:
        """Atomically insert ``body``; return (path cells, new cells, locked
        cell) for the reference stream."""
        path: list[int] = []
        created: list[int] = []
        ci = 0
        p = self._pos_list[body]
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
            so = self._octant(sub, self._pos_list[other])
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
        #: per cell and child slot, the address of the child's record
        #: (its COM line or its body), -1 where the slot is empty
        self._kid_addrs = np.full((len(self.cells), 8), -1, dtype=np.int64)
        for ci in range(len(self.cells) - 1, -1, -1):  # children after
            cell = self.cells[ci]                       # their parents
            m = 0.0
            com = np.zeros(3)
            for o, slot in enumerate(cell.children):
                if slot is None:
                    continue
                if slot[0] == "b":
                    bm = self.mass[slot[1]]
                    m += bm
                    com += bm * self.pos[slot[1]]
                    self._kid_addrs[ci, o] = self._body_addr(slot[1])
                else:
                    sub = self.cells[slot[1]]
                    m += sub.mass
                    com += sub.mass * sub.com
                    self._kid_addrs[ci, o] = self._cell_line0(slot[1])
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

    def _com_ops(self) -> tuple:
        """Phase 2's ops of every processor, a row per cell it was dealt
        (:data:`_COM_OPS`, an empty slot's read left out)."""
        n = self.config.n_processors
        owner = np.arange(len(self.cells)) % n
        cells = np.argsort(owner, kind="stable")
        args = np.empty((len(cells), len(_COM_OPS)), dtype=np.int64)
        args[:, 0] = element_addrs(self.rcells, cells * _CELL_DOUBLES + 8)
        args[:, 1:9] = kids = self._kid_addrs[cells]
        args[:, 9] = 40
        args[:, 10] = args[:, 0] - 8 * self.rcells.element_size
        keep = np.ones(args.shape, dtype=bool)
        keep[:, 1:9] = kids >= 0
        return table_parts(_COM_OPS, args, keep, np.searchsorted(
            owner[cells], np.arange(n + 1)))

    def _force_ops(self, mine: range) -> Iterable[Op]:
        """Phase 3's ops for bodies ``mine``: per body, its own record,
        then one row per visit of its walk (:data:`_FORCE_OPS`)."""
        kind, idx, first = self._visits
        lo, hi = first[mine.start], first[mine.stop]
        # a body's row sits before its visits: at its first visit, moved
        # down by the rows of the bodies before it
        head = np.asarray(first[mine.start:mine.stop]) - lo + np.arange(
            len(mine))
        rows = np.full(hi - lo + len(mine), 3)
        is_visit = np.ones(len(rows), dtype=bool)
        is_visit[head] = False
        rows[is_visit] = kind[lo:hi]
        at = np.empty(len(rows), dtype=np.int64)
        at[head] = np.asarray(mine)
        at[is_visit] = idx[lo:hi]
        cell = rows < _BODY
        args = np.empty((len(rows), 3), dtype=np.int64)
        args[:, 0] = np.where(
            cell, element_addrs(self.rcells, np.where(cell, at, 0)
                                * _CELL_DOUBLES),
            element_addrs(self.rbodies, np.where(cell, 0, at)
                          * _BODY_DOUBLES))
        args[:, 1] = np.where(rows == _OPEN,
                              args[:, 0] + 8 * self.rcells.element_size, 60)
        args[:, 2] = 16
        return self.op_batch(*table_parts(_FORCE_OPS[rows], args,
                                          _FORCE_KEEP[rows])[:2])

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
            yield from self.shared_batch(("com", step), pid, self._com_ops)
            yield Barrier(bar())

            # ---- phase 3: forces ------------------------------------
            self._ensure_forces(step)
            yield from self._force_ops(mine)
            yield Barrier(bar())
            self._visits = None  # every processor is done with it

            # ---- phase 4: update ------------------------------------
            # leapfrog (elementwise, so with the bits of one body at a time)
            own = slice(mine.start, mine.stop)
            self.vel[own] += self.dt * self.acc[own]
            self.pos[own] += self.dt * self.vel[own]
            yield from self.shared_batch(
                ("update", step), pid, lambda: self.update_ops(
                    self.rbodies, _BODY_DOUBLES, self.n, 40))
            yield Barrier(bar())
