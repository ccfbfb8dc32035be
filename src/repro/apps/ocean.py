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
from ..sim.program import Barrier, Op, Read, Work
from .base import Application, PhaseBarriers, proc_grid_shape

__all__ = ["OceanApp"]


def _padded(u: np.ndarray, i0: int, j0: int, sr: int, sc: int,
            n: int) -> np.ndarray:
    """Subgrid with halo: neighbour values inside the domain, reflective
    ghosts (−edge) at domain walls so the Dirichlet boundary sits exactly
    on the cell faces at every multigrid level."""
    pad = np.empty((sr + 2, sc + 2))
    pad[1:-1, 1:-1] = u[i0:i0 + sr, j0:j0 + sc]
    pad[0, 1:-1] = u[i0 - 1, j0:j0 + sc] if i0 > 0 else -u[i0, j0:j0 + sc]
    pad[-1, 1:-1] = (u[i0 + sr, j0:j0 + sc] if i0 + sr < n
                     else -u[i0 + sr - 1, j0:j0 + sc])
    pad[1:-1, 0] = u[i0:i0 + sr, j0 - 1] if j0 > 0 else -u[i0:i0 + sr, j0]
    pad[1:-1, -1] = (u[i0:i0 + sr, j0 + sc] if j0 + sc < n
                     else -u[i0:i0 + sr, j0 + sc - 1])
    pad[0, 0] = pad[0, -1] = pad[-1, 0] = pad[-1, -1] = 0.0
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
        Number of multigrid V-cycles (default 2).
    nu1, nu2:
        Pre-/post-smoothing sweeps (defaults 2 and 1).
    """

    name = "ocean"

    def __init__(self, config: MachineConfig, n: int = 128,
                 n_vcycles: int = 3, nu1: int = 2, nu2: int = 1,
                 coarse_sweeps: int = 8, seed: int = 12345) -> None:
        super().__init__(config, seed)
        self.pr, self.pc = proc_grid_shape(config.n_processors)
        self.n = n
        self.n_vcycles = n_vcycles
        self.nu1, self.nu2 = nu1, nu2
        self.coarse_sweeps = coarse_sweeps
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
    def setup(self) -> None:
        rng = self.rng(0)
        fine = self.levels[0]
        fine.f[:] = rng.uniform(-1.0, 1.0, size=(fine.n, fine.n))
        for li, lvl in enumerate(self.levels):
            n2 = lvl.n * lvl.n
            lvl.ru = [self.space.allocate(f"ocean.u{b}.L{li}", n2) for b in (0, 1)]
            lvl.rf = self.space.allocate(f"ocean.f.L{li}", n2)
            lvl.rr = self.space.allocate(f"ocean.r.L{li}", n2)
            for region in (*lvl.ru, lvl.rf, lvl.rr):
                self.place_partitions(region)

    # ------------------------------------------------------------ emission
    def _row_ops(self, lvl: _Level, region: Region, i: int, j0: int,
                 count: int, write: bool) -> Iterator[Op]:
        """Span over a contiguous run of row ``i`` (stays inside one subgrid
        because callers never cross a subgrid column boundary)."""
        start = self._elem(lvl, i, j0)
        if write:
            yield from self.write_span(region, start, count)
        else:
            yield from self.read_span(region, start, count)

    def _sweep_ops(self, pid: int, lvl: _Level, src: int) -> Iterator[Op]:
        """One damped-Jacobi sweep over my subgrid: read buffer ``src`` +
        f, write buffer ``1-src``.  Numerics happen first (src is stable
        within the phase)."""
        pi, pj = self.proc_coords(pid)
        n, sr, sc = lvl.n, lvl.sr, lvl.sc
        i0, j0 = pi * sr, pj * sc
        uo, un = lvl.u[src], lvl.u[1 - src]
        # --- real computation (vectorized, Dirichlet wall at cell faces:
        # ghost cell = -edge cell, consistent across multigrid levels) ----
        pad = _padded(uo, i0, j0, sr, sc, n)
        omega = 0.8  # weighted Jacobi: plain Jacobi does not smooth in 2-D
        jac = 0.25 * (
            pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:]
            + lvl.h2 * lvl.f[i0:i0 + sr, j0:j0 + sc])
        un[i0:i0 + sr, j0:j0 + sc] = ((1.0 - omega) * uo[i0:i0 + sr, j0:j0 + sc]
                                      + omega * jac)
        # --- reference stream ---------------------------------------------
        rsrc, rdst, rf = lvl.ru[src], lvl.ru[1 - src], lvl.rf
        for li in range(sr):
            i = i0 + li
            # north neighbour row (remote subgrid when li == 0)
            if i > 0:
                yield from self._row_ops(lvl, rsrc, i - 1, j0, sc, write=False)
            # own row (west/east interior neighbours + centre share lines)
            yield from self._row_ops(lvl, rsrc, i, j0, sc, write=False)
            # south neighbour row
            if i + 1 < n:
                yield from self._row_ops(lvl, rsrc, i + 1, j0, sc, write=False)
            # west/east halo elements from side neighbours
            if j0 > 0:
                yield Read(rsrc.element(self._elem(lvl, i, j0 - 1)))
            if j0 + sc < n:
                yield Read(rsrc.element(self._elem(lvl, i, j0 + sc)))
            yield from self._row_ops(lvl, rf, i, j0, sc, write=False)
            # the real Ocean updates several coupled fields per point;
            # ~60 cycles/point of arithmetic is representative
            yield Work(60 * sc)
            yield from self._row_ops(lvl, rdst, i, j0, sc, write=True)

    def _residual_ops(self, pid: int, lvl: _Level, src: int) -> Iterator[Op]:
        """r = f − A·u(src) over my subgrid (same halo pattern as a sweep)."""
        pi, pj = self.proc_coords(pid)
        n, sr, sc = lvl.n, lvl.sr, lvl.sc
        i0, j0 = pi * sr, pj * sc
        u = lvl.u[src]
        pad = _padded(u, i0, j0, sr, sc, n)
        lap = (4.0 * pad[1:-1, 1:-1] - pad[:-2, 1:-1] - pad[2:, 1:-1]
               - pad[1:-1, :-2] - pad[1:-1, 2:]) / lvl.h2
        lvl.r[i0:i0 + sr, j0:j0 + sc] = lvl.f[i0:i0 + sr, j0:j0 + sc] - lap
        rsrc, rf, rr = lvl.ru[src], lvl.rf, lvl.rr
        for li in range(sr):
            i = i0 + li
            if i > 0:
                yield from self._row_ops(lvl, rsrc, i - 1, j0, sc, write=False)
            yield from self._row_ops(lvl, rsrc, i, j0, sc, write=False)
            if i + 1 < n:
                yield from self._row_ops(lvl, rsrc, i + 1, j0, sc, write=False)
            if j0 > 0:
                yield Read(rsrc.element(self._elem(lvl, i, j0 - 1)))
            if j0 + sc < n:
                yield Read(rsrc.element(self._elem(lvl, i, j0 + sc)))
            yield from self._row_ops(lvl, rf, i, j0, sc, write=False)
            yield Work(62 * sc)
            yield from self._row_ops(lvl, rr, i, j0, sc, write=True)

    def _restrict_ops(self, pid: int, fine: _Level, coarse: _Level) -> Iterator[Op]:
        """coarse.f = 2×2 average of fine.r; coarse.u(0) zeroed.

        Both levels are partitioned over the same processor grid, so the
        2×2 block feeding my coarse point lies in my own fine subgrid —
        restriction is communication-free, as in real multigrid codes.
        """
        pi, pj = self.proc_coords(pid)
        ci0, cj0 = pi * coarse.sr, pj * coarse.sc
        blk = fine.r[2 * ci0:2 * (ci0 + coarse.sr), 2 * cj0:2 * (cj0 + coarse.sc)]
        coarse.f[ci0:ci0 + coarse.sr, cj0:cj0 + coarse.sc] = 0.25 * (
            blk[0::2, 0::2] + blk[1::2, 0::2] + blk[0::2, 1::2] + blk[1::2, 1::2])
        coarse.u[0][ci0:ci0 + coarse.sr, cj0:cj0 + coarse.sc] = 0.0
        coarse.u[1][ci0:ci0 + coarse.sr, cj0:cj0 + coarse.sc] = 0.0
        for li in range(coarse.sr):
            fi = 2 * (ci0 + li)
            yield from self._row_ops(fine, fine.rr, fi, 2 * cj0, 2 * coarse.sc, False)
            yield from self._row_ops(fine, fine.rr, fi + 1, 2 * cj0, 2 * coarse.sc, False)
            yield Work(8 * coarse.sc)
            yield from self._row_ops(coarse, coarse.rf, ci0 + li, cj0, coarse.sc, True)
            yield from self._row_ops(coarse, coarse.ru[0], ci0 + li, cj0, coarse.sc, True)
            yield from self._row_ops(coarse, coarse.ru[1], ci0 + li, cj0, coarse.sc, True)

    def _prolong_ops(self, pid: int, fine: _Level, coarse: _Level,
                     fine_buf: int, coarse_buf: int) -> Iterator[Op]:
        """fine.u(fine_buf) += piecewise-constant expansion of coarse.u."""
        pi, pj = self.proc_coords(pid)
        ci0, cj0 = pi * coarse.sr, pj * coarse.sc
        cu = coarse.u[coarse_buf][ci0:ci0 + coarse.sr, cj0:cj0 + coarse.sc]
        expanded = np.repeat(np.repeat(cu, 2, axis=0), 2, axis=1)
        fi0, fj0 = 2 * ci0, 2 * cj0
        for b in (0, 1):
            fine.u[b][fi0:fi0 + 2 * coarse.sr, fj0:fj0 + 2 * coarse.sc] += expanded
        # correcting both fine buffers keeps them coherent for the next sweep
        for li in range(coarse.sr):
            yield from self._row_ops(coarse, coarse.ru[coarse_buf],
                                     ci0 + li, cj0, coarse.sc, False)
            yield Work(4 * coarse.sc)
            for b in (0, 1):
                yield from self._row_ops(fine, fine.ru[b], 2 * (ci0 + li),
                                         fj0, 2 * coarse.sc, True)
                yield from self._row_ops(fine, fine.ru[b], 2 * (ci0 + li) + 1,
                                         fj0, 2 * coarse.sc, True)

    # -------------------------------------------------------------- program
    def _vcycle_ops(self, pid: int, bar: PhaseBarriers, depth: int,
                    buf: list[int]) -> Iterator[Op]:
        """Recursive V-cycle.  ``buf[depth]`` tracks the current u buffer of
        each level (identical across processors — same control flow)."""
        lvl = self.levels[depth]
        if depth == len(self.levels) - 1:
            for _ in range(self.coarse_sweeps):
                yield from self._sweep_ops(pid, lvl, buf[depth])
                buf[depth] ^= 1
                yield Barrier(bar())
            return
        for _ in range(self.nu1):
            yield from self._sweep_ops(pid, lvl, buf[depth])
            buf[depth] ^= 1
            yield Barrier(bar())
        yield from self._residual_ops(pid, lvl, buf[depth])
        yield Barrier(bar())
        yield from self._restrict_ops(pid, lvl, self.levels[depth + 1])
        buf[depth + 1] = 0
        yield Barrier(bar())
        yield from self._vcycle_ops(pid, bar, depth + 1, buf)
        yield from self._prolong_ops(pid, lvl, self.levels[depth + 1],
                                     buf[depth], buf[depth + 1])
        yield Barrier(bar())
        for _ in range(self.nu2):
            yield from self._sweep_ops(pid, lvl, buf[depth])
            buf[depth] ^= 1
            yield Barrier(bar())

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
        pad = _padded(u, 0, 0, lvl.n, lvl.n, lvl.n)
        lap = (4 * pad[1:-1, 1:-1] - pad[:-2, 1:-1] - pad[2:, 1:-1]
               - pad[1:-1, :-2] - pad[1:-1, 2:]) / lvl.h2
        return float(np.linalg.norm(lvl.f - lap))
