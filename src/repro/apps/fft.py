"""FFT — 1-D radix-√n six-step Fast Fourier Transform (SPLASH-2 FFT analog).

Paper characterization (Tables 2-3): 64 K complex points organised as a
√n × √n matrix, each processor assigned a contiguous set of rows; all-to-all
structured communication in the blocked matrix transposes; small working set
(one partition row block, ~4 KB).  Figure 2: clustering reduces the all-to-all
communication only by the factor (C−1)/(P−1), so the benefit is tiny.

The six-step algorithm for N = M² (all FFT work happens along rows, so each
processor only ever computes on the rows it owns):

1. transpose A → B                       (all-to-all communication)
2. M-point FFT on each row of B
3. twiddle multiply B[i,j] *= W_N^{ij}   (folded into phase 2's sweep)
4. transpose B → A                       (all-to-all communication)
5. M-point FFT on each row of A
6. transpose A → B                       (all-to-all; gives natural order)

The result equals ``numpy.fft.fft`` of the input (checked in tests).
Matrices are double-buffered in two shared regions so transposes are
deterministic under any interleaving; each processor's rows are placed at
its cluster.  Transpose reads are emitted per element (the strided side has
no spatial locality — that is what makes the communication all-to-all at
line granularity); row-local sweeps use span emission.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import OP_READ, OP_WORK, OP_WRITE, Barrier, Op
from .base import Application, PhaseBarriers

__all__ = ["FFTApp"]

#: complex128 — two doubles per point
_ELEM = 16


class FFTApp(Application):
    """Six-step 1-D FFT of ``n_points`` complex points.

    Parameters
    ----------
    n_points:
        Transform size; must be a perfect square whose root is a multiple
        of the processor count.  Default 65 536 — the paper's size.
    """

    name = "fft"

    def __init__(self, config: MachineConfig, n_points: int = 65536,
                 seed: int = 12345) -> None:
        super().__init__(config, seed)
        m = int(round(np.sqrt(n_points)))
        if m * m != n_points:
            raise ValueError(f"n_points {n_points} is not a perfect square")
        if m % config.n_processors != 0:
            raise ValueError(
                f"sqrt(n_points)={m} must be a multiple of "
                f"{config.n_processors} processors")
        self.n_points = n_points
        self.m = m
        self.rows_per_proc = m // config.n_processors
        self.A = np.empty((m, m), dtype=np.complex128)
        self.B = np.empty((m, m), dtype=np.complex128)
        self.x_input = np.empty(n_points, dtype=np.complex128)

    # ---------------------------------------------------------------- setup
    def place(self) -> None:
        self.ra = self.space.allocate("fft.A", self.n_points, element_size=_ELEM)
        self.rb = self.space.allocate("fft.B", self.n_points, element_size=_ELEM)
        # Contiguous row blocks of both buffers live at their owner's cluster.
        self.place_partitions(self.ra)
        self.place_partitions(self.rb)

    def build_input(self) -> None:
        rng = self.rng(0)
        self.x_input[:] = (rng.standard_normal(self.n_points)
                           + 1j * rng.standard_normal(self.n_points))
        self.A[:] = self.x_input.reshape(self.m, self.m)

    def my_rows(self, pid: int) -> range:
        lo = pid * self.rows_per_proc
        return range(lo, lo + self.rows_per_proc)

    # ----------------------------------------------------------- emission
    def _transpose_ops(self, pid: int, src, src_mat: np.ndarray,
                       dst, dst_mat: np.ndarray) -> Iterable[Op]:
        """dst[i, :] = src[:, i] for my rows i, patch-blocked by source owner.

        Reads walk the source *rows within one owner's block* first (the
        SPLASH blocked transpose), giving each fetched line its best chance
        of reuse across my destination rows before moving to the next
        source processor's rows.
        """
        mine = self.my_rows(pid)
        # numerics first (deterministic: src is stable in this phase)
        dst_mat[mine.start:mine.stop, :] = src_mat[:, mine.start:mine.stop].T
        return self.shared_batch((src.name, dst.name), pid,
                                 lambda: self._transpose_parts(src, dst))

    def _transpose_parts(self, src, dst) -> tuple:
        """Every processor's transpose ops (:meth:`span_table`), a row of
        records per source processor ``q``: SPLASH's blocked transpose
        reads the rp×rp patch of ``q`` in *source row-major* order
        (elements src[j, mine] are contiguous, so each fetched line is
        fully consumed before moving on), each row read followed by its
        copy/address arithmetic, then writes the patch: columns
        jlo..jlo+rp of my rows."""
        m, rp = self.m, self.rows_per_proc
        first = np.arange(0, self.config.n_processors * rp, rp)  # of q's rows
        mine, theirs = first[:, None], first[None, :]  # [pid, q]
        return self.span_table(
            *(record for k in range(rp) for record in (
                (OP_READ, src, (theirs + k) * m + mine, rp),
                (OP_WORK, 2 * rp))),
            *((OP_WRITE, dst, (mine + k) * m + theirs, rp) for k in range(rp)))

    def _row_fft_ops(self, pid: int, buf, mat: np.ndarray,
                     twiddle: bool) -> Iterable[Op]:
        """In-place M-point FFT (+ optional twiddle) on my rows of ``buf``;
        per row, read it, transform it, write it back."""
        m = self.m
        for i in self.my_rows(pid):
            mat[i, :] = np.fft.fft(mat[i, :])
            if twiddle:
                mat[i, :] *= np.exp(-2j * np.pi * i * np.arange(m) / self.n_points)
        return self.shared_batch((buf.name, twiddle), pid,
                                 lambda: self._row_parts(buf, twiddle))

    def _row_parts(self, buf, twiddle: bool) -> tuple:
        """Every processor's row-pass ops: per row, a span read, the
        transform's cycles, a span write."""
        m, rp, n = self.m, self.rows_per_proc, self.config.n_processors
        # 5·M·log2(M) complex-arithmetic flops per row, ≈2.5 cycles each
        # (multiply-add pairs, index arithmetic, load/store of scratch)
        flops_per_row = int(12.5 * m * np.log2(m))
        row = np.arange(n * rp).reshape(n, rp)
        return self.span_table(
            (OP_READ, buf, row * m, m),
            (OP_WORK, flops_per_row + (6 * m if twiddle else 0)),
            (OP_WRITE, buf, row * m, m))

    def program(self, pid: int) -> Iterator[Op]:
        bar = PhaseBarriers()
        yield Barrier(bar())  # all start together (matches SPLASH init barrier)
        # Step 1: transpose A -> B    (B[n2, n1] = A[n1, n2] viewed as x)
        yield from self._transpose_ops(pid, self.ra, self.A, self.rb, self.B)
        yield Barrier(bar())
        # Steps 2-3: row FFT over n1 + twiddle on B
        yield from self._row_fft_ops(pid, self.rb, self.B, twiddle=True)
        yield Barrier(bar())
        # Step 4: transpose B -> A    (A[k1, n2])
        yield from self._transpose_ops(pid, self.rb, self.B, self.ra, self.A)
        yield Barrier(bar())
        # Step 5: row FFT over n2 on A
        yield from self._row_fft_ops(pid, self.ra, self.A, twiddle=False)
        yield Barrier(bar())
        # Step 6: transpose A -> B    (natural-order result in B)
        yield from self._transpose_ops(pid, self.ra, self.A, self.rb, self.B)
        yield Barrier(bar())

    # ------------------------------------------------------------- checking
    def result(self) -> np.ndarray:
        """The transform output (row-major flatten of the final buffer)."""
        return self.B.reshape(-1).copy()

    def reference(self) -> np.ndarray:
        """Independent reference: ``numpy.fft.fft`` of the input."""
        return np.fft.fft(self.x_input)
