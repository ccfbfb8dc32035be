"""LU — blocked dense LU factorization (SPLASH-2 LU analog).

Paper characterization (Tables 2-3): 512×512 matrix in 16×16 blocks; low
communication volume along rows and columns of the processor grid; working
set ≈ one block (2 KB), disjoint between processors.  Figure 2 shows ≥98%
of the 1-per-cluster execution time at 8-way clustering (clustering barely
helps); Table 7 shows clustering *hurting* once shared-cache hit-time costs
are added.

Structure (per elimination step ``k``):

1. the owner of diagonal block (k,k) factorizes it in place (no pivoting —
   the generated matrix is diagonally dominant, as in SPLASH-2);
2. *barrier*; owners of perimeter blocks (k,J) and (I,k) update them
   against the diagonal block (this is where processors in the same grid
   row/column read the same remote block — the prefetching opportunity the
   paper discusses);
3. *barrier*; owners of interior blocks (I,J) update them against their
   row and column perimeter blocks;
4. *barrier*.

Blocks are assigned to processors by 2-D scatter over an 8×8 processor
grid and stored block-major so each block is contiguous (one 2 KB working
set per processor); each block's pages are placed at its owner's cluster.

The numerics are real: the shared matrix is factored block-by-block with
numpy, and ``L @ U`` reconstructs the input (checked by the unit tests).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import OP_READ, OP_WORK, OP_WRITE, Barrier, Op
from .base import Application, PhaseBarriers, proc_grid_shape

__all__ = ["LUApp"]


class LUApp(Application):
    """Blocked LU factorization without pivoting.

    Parameters
    ----------
    n:
        Matrix dimension (default 384; the paper used 512).
    block:
        Block dimension (default 16, the paper's size — 16×16×8 B = 2 KB,
        the working set of Table 3).
    """

    name = "lu"

    def __init__(self, config: MachineConfig, n: int = 384, block: int = 16,
                 seed: int = 12345) -> None:
        super().__init__(config, seed)
        if n % block != 0:
            raise ValueError(f"block {block} must divide n {n}")
        self.n = n
        self.block = block
        self.nb = n // block
        self.proc_rows, self.proc_cols = proc_grid_shape(config.n_processors)
        #: the live matrix, factored in place as the simulation progresses
        self.A = np.empty((n, n), dtype=np.float64)
        self.A_input = np.empty((n, n), dtype=np.float64)

    # ------------------------------------------------------------ ownership
    def owner_of(self, bi: int, bj: int) -> int:
        """Processor owning block (bi, bj): 2-D scatter decomposition."""
        return (bi % self.proc_rows) * self.proc_cols + (bj % self.proc_cols)

    def _block_elem(self, bi: int, bj: int) -> int:
        """First element index of block (bi, bj) in block-major layout."""
        return (bi * self.nb + bj) * self.block * self.block

    # ---------------------------------------------------------------- setup
    def place(self) -> None:
        self.matrix = self.space.allocate("lu.matrix", self.n * self.n,
                                          element_size=8)
        # blocks are contiguous, in (bi, bj) order; each at its owner's cluster
        owners = self.owner_of(*np.divmod(np.arange(self.nb ** 2), self.nb))
        self.allocator.place_chunks(
            self.matrix.base, self.matrix.end, self.block * self.block * 8,
            list(map(self.config.cluster_of, owners.tolist())))

    def build_input(self) -> None:
        rng = self.rng(0)
        n = self.n
        self.A_input[:] = rng.uniform(-1.0, 1.0, size=(n, n))
        # Diagonal dominance keeps no-pivot LU numerically safe.
        self.A_input[np.arange(n), np.arange(n)] += n
        self.A[:] = self.A_input

    # ----------------------------------------------------------- numerics
    def _view(self, bi: int, bj: int) -> np.ndarray:
        """Writable (block, block) view of block (bi, bj)."""
        b = self.block
        return self.A[bi * b:(bi + 1) * b, bj * b:(bj + 1) * b]

    @staticmethod
    def _factor_diag(d: np.ndarray) -> None:
        """Unblocked in-place LU (unit lower) of one diagonal block."""
        m = d.shape[0]
        for k in range(m):
            d[k + 1:, k] /= d[k, k]
            d[k + 1:, k + 1:] -= np.outer(d[k + 1:, k], d[k, k + 1:])

    @staticmethod
    def _solve_row(d: np.ndarray, u: np.ndarray) -> None:
        """u := L(d)^{-1} u  (forward substitution with unit lower L)."""
        m = d.shape[0]
        for k in range(m):
            u[k + 1:, :] -= np.outer(d[k + 1:, k], u[k, :])

    @staticmethod
    def _solve_col(d: np.ndarray, l_: np.ndarray) -> None:
        """l := l U(d)^{-1} (back substitution against upper U)."""
        m = d.shape[0]
        for k in range(m):
            l_[:, k] /= d[k, k]
            l_[:, k + 1:] -= np.outer(l_[:, k], d[k, k + 1:])

    # ----------------------------------------------------------- emission
    def _phase_ops(self, k: int, phase: int) -> tuple:
        """Every processor's ops of phase ``phase`` (1-3) of step ``k``
        (:meth:`span_table`), from its block tasks: a task reads its
        blocks, works, and writes its block, and the block's owner runs
        it, in :meth:`program`'s order."""
        b, after = self.block, np.arange(k + 1, self.nb)
        # flop costs charged as Work, ~2 cycles/flop (FP multiply-add
        # chains plus block addressing on early-90s RISC pipelines)
        if phase == 1:  # the diagonal block
            write = (np.array([k]), np.array([k]))
            reads, flops = [write], (4 * b * b * b) // 3
        elif phase == 2:  # perimeter row blocks, then column blocks
            across = np.full(len(after), k)
            write = (np.append(across, after), np.append(after, across))
            reads, flops = [(k, k), write], 2 * b * b * b
        else:  # interior blocks, row-major
            write = [a.ravel() for a in np.meshgrid(after, after,
                                                    indexing="ij")]
            reads, flops = [(write[0], k), (k, write[1]), write], \
                4 * b * b * b
        owner = self.owner_of(*write)
        order = np.argsort(owner, kind="stable")

        def span(opcode, rows, cols):
            return opcode, self.matrix, np.broadcast_to(
                self._block_elem(rows, cols), owner.shape)[order], b * b

        return self.span_table(
            *(span(OP_READ, *blocks) for blocks in reads), (OP_WORK, flops),
            span(OP_WRITE, *write), edges=np.searchsorted(
                owner[order], np.arange(self.config.n_processors + 1)))

    def program(self, pid: int) -> Iterator[Op]:
        bar = PhaseBarriers()
        nb = self.nb
        # the block rows and columns of pid's blocks (owner_of's scatter)
        r0, c0 = divmod(pid, self.proc_cols)
        my_rows = range(r0, nb, self.proc_rows)
        my_cols = range(c0, nb, self.proc_cols)

        for k in range(nb):
            # pid's block rows and columns past k, in increasing order
            rows = my_rows[(k - r0) // my_rows.step + 1:]
            cols = my_cols[(k - c0) // my_cols.step + 1:]

            # Phase 1: diagonal factorization by its owner.
            if self.owner_of(k, k) == pid:
                self._factor_diag(self._view(k, k))
            yield from self.shared_batch((k, 1), pid,
                                         lambda: self._phase_ops(k, 1))
            yield Barrier(bar())

            # Phase 2: perimeter row and column updates.
            if k % self.proc_rows == r0:
                for bj in cols:
                    self._solve_row(self._view(k, k), self._view(k, bj))
            if k % self.proc_cols == c0:
                for bi in rows:
                    self._solve_col(self._view(k, k), self._view(bi, k))
            yield from self.shared_batch((k, 2), pid,
                                         lambda: self._phase_ops(k, 2))
            yield Barrier(bar())

            # Phase 3: interior updates A[I,J] -= A[I,k] @ A[k,J].
            for bi in rows:
                for bj in cols:
                    self._view(bi, bj)[...] -= self._view(bi, k) @ self._view(k, bj)
            yield from self.shared_batch((k, 3), pid,
                                         lambda: self._phase_ops(k, 3))
            yield Barrier(bar())

    # ------------------------------------------------------------- checking
    def reconstruct(self) -> np.ndarray:
        """``L @ U`` from the factored matrix (for correctness tests)."""
        L = np.tril(self.A, -1) + np.eye(self.n)
        U = np.triu(self.A)
        return L @ U
