"""Ocean — regular-grid nearest-neighbour multigrid solver (SPLASH-2 Ocean
analog).

Paper characterization (Tables 2-3): 130×130 grids (128×128 interior), ~25
grids; nearest-neighbour communication with a multigrid solver; working set
= a processor's partition of a grid, partitions disjoint.  Figure 2: Ocean
is the one application whose *inherent communication* clustering captures —
processors are assigned adjacent subgrids along rows of the processor grid,
so doubling the cluster size halves inter-cluster boundary traffic.
Figure 3 repeats the experiment with a small (66×66) grid where
communication matters more: clustering helps more, but load-imbalance sync
time grows.

We solve the Poisson problem −∇²u = f, u|∂Ω = 0 with a cell-centred
multigrid V-cycle: damped-Jacobi smoothing (double-buffered, so the
numerics are deterministic under any interleaving), residual restriction by
2×2 averaging, piecewise-constant prolongation.  Each level is partitioned
into square per-processor subgrids stored contiguously (the SPLASH-2 4-D
array layout) and placed at the owner's cluster.  Boundary stencil reads at
subgrid edges are the nearest-neighbour communication.

Like its SPLASH counterpart, the heavy data structures are one u (double
buffered), f, and r array per level — 5 levels × 4 arrays at the default
size, the structural analog of the paper's "25 grids".
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.config import MachineConfig
from ..memory.address import Region
from ..sim.program import OP_READ, OP_WORK, OP_WRITE, Barrier, Op
from .base import Application, PhaseBarriers, proc_grid_shape

__all__ = ["OceanApp"]


def _padded(u: np.ndarray) -> np.ndarray:
    """A level's grid with a halo of reflective ghosts (−edge), so the
    Dirichlet boundary sits exactly on the cell faces at every level."""
    pad = np.zeros((u.shape[0] + 2, u.shape[1] + 2))
    pad[1:-1, 1:-1] = u
    pad[0, 1:-1], pad[-1, 1:-1] = -u[0], -u[-1]
    pad[1:-1, 0], pad[1:-1, -1] = -u[:, 0], -u[:, -1]
    return pad


class _Level:
    """Geometry plus numpy state for one multigrid level."""

    __slots__ = ("n", "h2", "sr", "sc", "u", "f", "r", "ru", "rf", "rr")

    def __init__(self, n: int, h2: float, sr: int, sc: int) -> None:
        self.n = n          #: interior points per side
        self.h2 = h2        #: grid spacing squared
        self.sr = sr        #: subgrid rows per processor
        self.sc = sc        #: subgrid cols per processor
        self.u = [np.zeros((n, n)), np.zeros((n, n))]  # double buffer
        self.f = np.zeros((n, n))
        self.r = np.zeros((n, n))
        self.ru: list[Region] = []  # the two u regions
        self.rf: Region | None = None
        self.rr: Region | None = None


class OceanApp(Application):
    """Multigrid Poisson solver on an ``n × n`` interior grid.

    Parameters
    ----------
    n:
        Interior grid points per side (default 128, the paper's "130×130
        grid"; Figure 3 uses 64, the paper's "66×66").  Must be divisible
        by the processor-grid rows and columns times ``2**(levels-1)``.
    n_vcycles:
        Number of multigrid V-cycles (default 3).
    """

    name = "ocean"
    #: pre- and post-smoothing sweeps per level of a V-cycle
    nu1, nu2 = 2, 1
    #: smoothing sweeps that stand in for a solve on the coarsest level
    coarse_sweeps = 8

    def __init__(self, config: MachineConfig, n: int = 128,
                 n_vcycles: int = 3, seed: int = 12345) -> None:
        super().__init__(config, seed)
        self.pr, self.pc = proc_grid_shape(config.n_processors)
        self.n = n
        self.n_vcycles = n_vcycles
        # Build as many levels as divisibility allows (at least 1).
        self.levels: list[_Level] = []
        size, h2 = n, (1.0 / n) ** 2  # cell-centred spacing
        while size % self.pr == 0 and size % self.pc == 0 and size >= self.pr:
            self.levels.append(_Level(size, h2, size // self.pr, size // self.pc))
            if size % 2:
                break
            size //= 2
            h2 *= 4.0
        if not self.levels:
            raise ValueError(
                f"grid {n} not partitionable over a {self.pr}x{self.pc} "
                f"processor grid")

    # ------------------------------------------------------------- geometry
    def proc_coords(self, pid: int) -> tuple[int, int]:
        return divmod(pid, self.pc)

    def _elem(self, lvl: _Level, i: int, j: int) -> int:
        """Element index of interior point (i, j) in subgrid-major layout."""
        pi, li = divmod(i, lvl.sr)
        pj, lj = divmod(j, lvl.sc)
        return ((pi * self.pc + pj) * lvl.sr + li) * lvl.sc + lj

    # ---------------------------------------------------------------- setup
    def place(self) -> None:
        for li, lvl in enumerate(self.levels):
            n2 = lvl.n * lvl.n
            lvl.ru = [self.space.allocate(f"ocean.u{b}.L{li}", n2) for b in (0, 1)]
            lvl.rf = self.space.allocate(f"ocean.f.L{li}", n2)
            lvl.rr = self.space.allocate(f"ocean.r.L{li}", n2)
            for region in (*lvl.ru, lvl.rf, lvl.rr):
                self.place_partitions(region)

    def build_input(self) -> None:
        fine = self.levels[0]
        fine.f[:] = self.rng(0).uniform(-1.0, 1.0, size=(fine.n, fine.n))

    # ------------------------------------------------------------ emission
    def _runs(self, *records) -> tuple:
        """Every processor's part of one phase's ops (:meth:`span_table`),
        one row of ``records`` per row of its subgrid.  ``(opcode, lvl,
        region, i, j, count)`` is the run of ``count`` points of row
        ``i`` of ``region`` from column ``j``, each over ``[processor,
        row]`` (broadcast; a count of 0 is no op), inside one subgrid:
        callers never cross a subgrid column boundary.  ``(OP_WORK,
        cycles)`` is that one op."""
        def span(opcode, lvl, region, i, j, count):
            return opcode, region, self._elem(lvl, i, j), count

        return self.span_table(*(record if record[0] == OP_WORK
                                 else span(*record) for record in records))

    def _origins(self, lvl: _Level) -> tuple[np.ndarray, np.ndarray]:
        """Every processor's subgrid rows ``[processor, row]`` of ``lvl``
        and its first column ``[processor, 1]``."""
        pi, pj = self.proc_coords(np.arange(self.config.n_processors))
        return ((pi * lvl.sr)[:, None] + np.arange(lvl.sr),
                (pj * lvl.sc)[:, None])

    # A phase's numerics are elementwise over the whole level, so one
    # pass for every subgrid has the bits of a pass per subgrid; each
    # returns every processor's ops of the phase (:meth:`_phase`).
    def _sweep(self, lvl: _Level, src: int) -> tuple:
        """One damped-Jacobi sweep: read buffer ``src`` + f, write
        buffer ``1-src``."""
        uo, pad = lvl.u[src], _padded(lvl.u[src])
        omega = 0.8  # weighted Jacobi: plain Jacobi does not smooth in 2-D
        jac = 0.25 * (
            pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:]
            + lvl.h2 * lvl.f)
        lvl.u[1 - src][...] = (1.0 - omega) * uo + omega * jac
        # the real Ocean updates several coupled fields per point; ~60
        # cycles/point of arithmetic is representative
        return self._stencil_ops(lvl, lvl.ru[src], lvl.ru[1 - src], 60)

    def _stencil_ops(self, lvl: _Level, rsrc: Region, rdst: Region,
                     cycles: int) -> tuple:
        """A sweep's or residual's ops over each subgrid: per row, its
        north neighbour row (remote subgrid at the top), itself
        (west/east interior neighbours and centre share lines), its
        south neighbour row, the west/east halo points from the side
        neighbours, its row of f, ``cycles`` per point of arithmetic,
        then the row written to ``rdst``."""
        n, sc = lvl.n, lvl.sc
        i, j0 = self._origins(lvl)
        return self._runs(
            (OP_READ, lvl, rsrc, i - 1, j0, np.where(i > 0, sc, 0)),
            (OP_READ, lvl, rsrc, i, j0, sc),
            (OP_READ, lvl, rsrc, i + 1, j0, np.where(i + 1 < n, sc, 0)),
            (OP_READ, lvl, rsrc, i, j0 - 1, j0 > 0),
            (OP_READ, lvl, rsrc, i, j0 + sc, j0 + sc < n),
            (OP_READ, lvl, lvl.rf, i, j0, sc),
            (OP_WORK, cycles * sc),
            (OP_WRITE, lvl, rdst, i, j0, sc))

    def _residual(self, lvl: _Level, src: int) -> tuple:
        """r = f − A·u(src) (same halo pattern as a sweep)."""
        pad = _padded(lvl.u[src])
        lap = (4.0 * pad[1:-1, 1:-1] - pad[:-2, 1:-1] - pad[2:, 1:-1]
               - pad[1:-1, :-2] - pad[1:-1, 2:]) / lvl.h2
        lvl.r[...] = lvl.f - lap
        return self._stencil_ops(lvl, lvl.ru[src], lvl.rr, 62)

    def _restrict(self, fine: _Level, coarse: _Level) -> tuple:
        """coarse.f = 2×2 average of fine.r; coarse.u zeroed.

        Both levels are partitioned over the same processor grid, so the
        2×2 block feeding a coarse point lies in its own fine subgrid —
        restriction is communication-free, as in real multigrid codes.
        """
        r = fine.r
        coarse.f[...] = 0.25 * (r[0::2, 0::2] + r[1::2, 0::2]
                                + r[0::2, 1::2] + r[1::2, 1::2])
        coarse.u[0][...] = coarse.u[1][...] = 0.0
        ci, cj = self._origins(coarse)
        csc = coarse.sc
        return self._runs(
            (OP_READ, fine, fine.rr, 2 * ci, 2 * cj, 2 * csc),
            (OP_READ, fine, fine.rr, 2 * ci + 1, 2 * cj, 2 * csc),
            (OP_WORK, 8 * csc),
            *((OP_WRITE, coarse, region, ci, cj, csc)
              for region in (coarse.rf, *coarse.ru)))

    def _prolong(self, fine: _Level, coarse: _Level, coarse_buf: int) -> tuple:
        """Both fine.u buffers += piecewise-constant expansion of
        coarse.u (correcting both keeps them coherent for the next
        sweep)."""
        expanded = np.repeat(np.repeat(coarse.u[coarse_buf], 2, axis=0), 2,
                             axis=1)
        for b in (0, 1):
            fine.u[b] += expanded
        ci, cj = self._origins(coarse)
        csc = coarse.sc
        return self._runs(
            (OP_READ, coarse, coarse.ru[coarse_buf], ci, cj, csc),
            (OP_WORK, 4 * csc),
            *((OP_WRITE, fine, fine.ru[b], 2 * ci + k, 2 * cj, 2 * csc)
              for b in (0, 1) for k in (0, 1)))

    # -------------------------------------------------------------- program
    def _phase(self, pid: int, bar: PhaseBarriers, step, *args
               ) -> Iterator[Op]:
        """One phase: ``step(*args)``, the numerics of every subgrid and
        every processor's ops, run once by the first processor to reach
        it (:meth:`shared_batch`, keyed by the phase's barrier); then
        pid's part and the barrier."""
        bid = bar()
        yield from self.shared_batch(bid, pid, lambda: step(*args))
        yield Barrier(bid)

    def _vcycle_ops(self, pid: int, bar: PhaseBarriers, depth: int,
                    buf: list[int]) -> Iterator[Op]:
        """Recursive V-cycle.  ``buf[depth]`` tracks the current u buffer of
        each level (identical across processors — same control flow)."""
        lvl = self.levels[depth]
        if depth == len(self.levels) - 1:
            for _ in range(self.coarse_sweeps):
                yield from self._phase(pid, bar, self._sweep, lvl, buf[depth])
                buf[depth] ^= 1
            return
        for _ in range(self.nu1):
            yield from self._phase(pid, bar, self._sweep, lvl, buf[depth])
            buf[depth] ^= 1
        yield from self._phase(pid, bar, self._residual, lvl, buf[depth])
        yield from self._phase(pid, bar, self._restrict, lvl,
                               self.levels[depth + 1])
        buf[depth + 1] = 0
        yield from self._vcycle_ops(pid, bar, depth + 1, buf)
        yield from self._phase(pid, bar, self._prolong, lvl,
                               self.levels[depth + 1], buf[depth + 1])
        for _ in range(self.nu2):
            yield from self._phase(pid, bar, self._sweep, lvl, buf[depth])
            buf[depth] ^= 1

    def program(self, pid: int) -> Iterator[Op]:
        bar = PhaseBarriers()
        buf = [0] * len(self.levels)
        yield Barrier(bar())
        for _ in range(self.n_vcycles):
            yield from self._vcycle_ops(pid, bar, 0, buf)
        self._final_buf = buf[0]

    # ------------------------------------------------------------- checking
    def solution(self) -> np.ndarray:
        """Current fine-grid iterate."""
        return self.levels[0].u[getattr(self, "_final_buf", 0)].copy()

    def residual_norm(self, buf: int | None = None) -> float:
        """‖f − A·u‖₂ on the fine grid (independent numpy evaluation)."""
        lvl = self.levels[0]
        u = lvl.u[self._final_buf if buf is None else buf]
        pad = _padded(u)
        lap = (4 * pad[1:-1, 1:-1] - pad[:-2, 1:-1] - pad[2:, 1:-1]
               - pad[1:-1, :-2] - pad[1:-1, 2:]) / lvl.h2
        return float(np.linalg.norm(lvl.f - lap))
