"""MP3D — rarefied-fluid particle-in-cell simulation (SPLASH MP3D analog).

Paper characterization (Tables 2-3): 50 000 particles; *the* communication
stress test — high-volume, very unstructured, read-write sharing of the
space-cell array; large O(n/p) working set.  The paper keeps it precisely
because it is *not* a well-tuned parallel code: particles are dealt to
processors round-robin with no spatial locality (it was written for vector
machines), so every processor scatters updates across the whole space-cell
array.  Figure 2: the relative communication reduction from clustering is
small, but because communication dominates execution time the performance
gain is the largest of the unstructured codes (~15% at 8-way).

Per time step each processor, for each of its particles:

1. reads the particle record (its own partition, placed locally),
2. advances it ballistically, reflecting at the domain walls (real
   kinematics — positions/velocities are simulated honestly),
3. reads **and writes** the space cell the particle lands in (count,
   momentum and energy accumulators — the unstructured read-write
   communication), and
4. with probability ``collide_prob`` performs a collision against the
   cell's reservoir velocity, rotating its velocity while preserving speed
   (energy-conserving, which the tests check).

Steps are separated by barriers.  Cell records are one cache line each and
round-robin page-placed (no owner makes sense — everyone writes them all).

Each processor advances its particles (a contiguous slice) as one numpy
batch per step, with the bits of the one-particle-at-a-time loop (which
``tests/test_apps_batch_bits.py`` keeps as its oracle): elementwise
moves and reflections, cell accumulators summed in particle order by
``np.add.at``, per-row dots (:func:`~repro.apps.base.row_dots`), and one
``rng.random(n)`` for the ``n`` collision draws.  The step's ops are then
built as arrays, addresses bounds-checked once per batch.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import (OP_LOCK, OP_READ, OP_UNLOCK, OP_WORK, OP_WRITE,
                           Barrier, Op)
from .base import (Application, PhaseBarriers, element_addrs, row_dots,
                   table_parts)

__all__ = ["MP3DApp"]

#: particle record: pos(3) + vel(3) + padding = one 64 B line
_PARTICLE_DOUBLES = 8
#: cell record: count + momentum(3) + energy + reservoir(3) = one 64 B line
_CELL_DOUBLES = 8
#: one particle's ops: read it, move (WORK 50), read and write its cell,
#: then — only if it collided — lock the cell, collide (WORK 40), write
#: the cell and unlock it; last, write the particle
_STEP_OPS = np.array([OP_READ, OP_WORK, OP_READ, OP_WRITE, OP_LOCK, OP_WORK,
                      OP_WRITE, OP_UNLOCK, OP_WRITE])


class MP3DApp(Application):
    """Particle-in-cell stress test.

    Parameters
    ----------
    n_particles:
        Particle count (default 50 000, the paper's size).
    cells_per_side:
        The space array is ``cells_per_side**3`` cells (default 12 → 1 728
        cells ≈ 108 KB of read-write shared accumulators).
    n_steps:
        Time steps (default 4).
    collide_prob:
        Per-step collision probability (default 0.25).
    """

    name = "mp3d"

    def __init__(self, config: MachineConfig, n_particles: int = 50000,
                 cells_per_side: int = 12, n_steps: int = 4,
                 collide_prob: float = 0.25, seed: int = 12345) -> None:
        super().__init__(config, seed)
        if n_particles < config.n_processors:
            raise ValueError("need at least one particle per processor")
        self.n_particles = n_particles
        self.cells_per_side = cells_per_side
        self.n_cells = cells_per_side ** 3
        self.n_steps = n_steps
        self.collide_prob = collide_prob
        self.pos = np.empty((n_particles, 3))
        self.vel = np.empty((n_particles, 3))
        # cell accumulators: [count, px, py, pz, energy, rx, ry, rz]
        self.cells = np.zeros((self.n_cells, _CELL_DOUBLES))

    # ---------------------------------------------------------------- setup
    def setup(self) -> None:
        rng = self.rng(0)
        self.pos[:] = rng.uniform(0.0, 1.0, size=self.pos.shape)
        self.vel[:] = rng.normal(0.0, 0.08, size=self.vel.shape)
        self.cells[:, 5:8] = rng.normal(0.0, 0.08, size=(self.n_cells, 3))
        self.rparticles = self.space.allocate(
            "mp3d.particles", self.n_particles * _PARTICLE_DOUBLES)
        self.rcells = self.space.allocate(
            "mp3d.cells", self.n_cells * _CELL_DOUBLES)
        # particles dealt round-robin -> place contiguous index chunks at
        # their owner's cluster anyway (records are private to the owner)
        self.place_partitions(self.rparticles)
        # space cells: no meaningful owner; first-touch round-robin pages

    def cells_of(self, pos: np.ndarray) -> np.ndarray:
        """Space cell index of each row of positions ``pos``."""
        cps = self.cells_per_side
        ijk = np.minimum((pos * cps).astype(int), cps - 1)
        return (ijk[:, 0] * cps + ijk[:, 1]) * cps + ijk[:, 2]

    # -------------------------------------------------------------- program
    def program(self, pid: int) -> Iterator[Op]:
        rng = self.rng(1, pid)
        mine = self.partition_slice(self.n_particles, pid)

        def phases() -> Iterator[Iterable[Op]]:
            bar = PhaseBarriers()
            yield (Barrier(bar()),)
            for _step in range(self.n_steps):
                yield self._advance(mine, rng)
                yield (Barrier(bar()),)

        # a step is advanced only once its barrier has been passed, and
        # its ops pass through no generator frame of ours
        return chain.from_iterable(phases())

    def _advance(self, mine: range, rng: np.random.Generator) -> Iterator[Op]:
        """Advance particles ``mine`` one step as one batch, and return the
        step's ops: per particle, in index order, the per-particle rule's
        ops (see the module docstring) with its exact bits.

        Every operation is elementwise, or accumulates in particle order
        (``np.add.at``), or is a per-row dot (:func:`row_dots`), so each
        particle and each cell accumulator ends as the one-particle-at-a-
        time loop left it; ``rng.random(n)`` draws what ``n`` calls of
        ``rng.random()`` draw."""
        dt = 0.05
        pos = self.pos[mine.start:mine.stop]
        vel = self.vel[mine.start:mine.stop]
        # -- numerics: ballistic move with wall reflection ----------------
        pos += dt * vel
        below, above = pos < 0.0, pos > 1.0
        pos[below] = -pos[below]
        pos[above] = 2.0 - pos[above]
        vel[below | above] = -vel[below | above]
        cell = self.cells_of(pos)
        np.add.at(self.cells[:, 0], cell, 1.0)
        np.add.at(self.cells[:, 1:4], cell, vel)
        np.add.at(self.cells[:, 4], cell, 0.5 * row_dots(vel, vel))
        collided = rng.random(len(mine)) < self.collide_prob
        # elastic scatter against the cell reservoir direction: rotate
        # velocity toward it, preserving speed
        hit = np.flatnonzero(collided)
        speed = np.sqrt(row_dots(vel[hit], vel[hit]))
        mix = 0.5 * (vel[hit] + self.cells[cell[hit], 5:8])
        norm = np.sqrt(row_dots(mix, mix))
        ok = (norm > 1e-12) & (speed > 0.0)
        vel[hit[ok]] = mix[ok] * (speed[ok] / norm[ok])[:, None]
        # -- reference stream ---------------------------------------------
        # per particle: read it, move, read-modify-write its cell; when it
        # collided, the collision under the cell's lock (SPLASH MP3D guards
        # collisions with per-cell locks; lock contention is part of its
        # synchronisation story); write it back
        paddr = element_addrs(self.rparticles,
                              np.arange(mine.start, mine.stop)
                              * _PARTICLE_DOUBLES)
        caddr = element_addrs(self.rcells, cell * _CELL_DOUBLES)
        args = np.empty((len(mine), len(_STEP_OPS)), dtype=np.int64)
        args[:] = (0, 50, 0, 0, 0, 40, 0, 0, 0)
        args[:, [0, 8]] = paddr[:, None]
        args[:, [2, 3, 6]] = caddr[:, None]
        args[:, [4, 7]] = cell[:, None]
        keep = np.ones(args.shape, dtype=bool)
        keep[:, 4:8] = collided[:, None]
        return self.op_batch(*table_parts(_STEP_OPS, args, keep)[:2])

    # ------------------------------------------------------------- checking
    def total_count(self) -> float:
        """Sum of all cell population accumulators (= particles × steps)."""
        return float(self.cells[:, 0].sum())

    def kinetic_energy(self) -> float:
        """Total particle kinetic energy (conserved by elastic collisions)."""
        return float(0.5 * np.einsum("ij,ij->", self.vel, self.vel))
