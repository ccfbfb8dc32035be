"""Radix — parallel radix sort of integer keys (SPLASH-2 RADIX analog).

Paper characterization (Tables 2-3): 256 K integer keys, radix 256;
all-to-all, relatively unstructured communication; two working sets — one
small (histograms), one large O(n/p) (the key partitions).  Figure 2: Radix
shows significant *prefetching* effects on the shared histograms, but — as
in LU — cluster-mates touch the histograms at the same time, so much of the
saved load-stall time reappears as merge time and net benefits are small.

One pass per digit (least significant first):

1. **histogram** — each processor counts digit occurrences in its key
   partition (linear local reads) and publishes its histogram row to a
   shared histogram table;
2. *barrier*; **rank** — the digit space is split across processors: the
   owner of a digit slice reads that *column* of every processor's
   histogram row (this transposed reduction over the shared histograms is
   the heavily shared read the paper calls out) and publishes per-(digit,
   processor) starting offsets;
3. *barrier*; **permute** — each processor re-reads its keys and writes
   each into its globally ranked slot of the destination buffer
   (unstructured all-to-all writes, "random locations in a shared array");
4. *barrier*; buffers swap and the next digit begins.

The sort is real: the final buffer equals ``numpy.sort`` of the input
(checked in tests).  Key buffers and histogram/offset rows are placed at
their owner's cluster.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from ..core.config import MachineConfig
from ..sim.program import OP_READ, OP_WORK, OP_WRITE, Barrier, Op
from .base import Application, PhaseBarriers, element_addrs, table_parts

__all__ = ["RadixApp"]

#: one key's permutation ops: read its digit's offset (only at the digit's
#: first key), read the key, rank it (WORK 14), write its ranked slot
_SCATTER_OPS = np.array([OP_READ, OP_READ, OP_WORK, OP_WRITE])


class RadixApp(Application):
    """Parallel LSD radix sort.

    Parameters
    ----------
    n_keys:
        Number of keys (default 131 072; the paper used 262 144).
    radix:
        Digit base (default 256, the paper's radix).
    n_digits:
        Number of digit passes; keys are drawn from ``[0, radix**n_digits)``
        (default 2, giving 16-bit keys at the default radix).
    """

    name = "radix"

    def __init__(self, config: MachineConfig, n_keys: int = 131072,
                 radix: int = 256, n_digits: int = 2,
                 seed: int = 12345) -> None:
        super().__init__(config, seed)
        if n_keys % config.n_processors != 0:
            raise ValueError("n_keys must be divisible by the processor count")
        if radix < 2 or n_digits < 1:
            raise ValueError("radix must be >= 2 and n_digits >= 1")
        if radix % config.n_processors != 0 and config.n_processors % radix != 0:
            # digit slices must tile the radix space evenly
            if radix < config.n_processors:
                raise ValueError("radix must be >= n_processors")
        self.n_keys = n_keys
        self.radix = radix
        self.n_digits = n_digits
        self.keys_per_proc = n_keys // config.n_processors
        self.buffers = [np.empty(n_keys, dtype=np.int64) for _ in range(2)]
        self.key_input = np.empty(n_keys, dtype=np.int64)
        # per-pass scratch shared between processes (recomputed each pass)
        self._hist = np.zeros((config.n_processors, radix), dtype=np.int64)
        self._offsets = np.zeros((radix, config.n_processors), dtype=np.int64)
        self._offsets_pass = -1  # which pass self._offsets currently holds

    # ---------------------------------------------------------------- setup
    def place(self) -> None:
        n = self.n_keys
        self.rkeys = [self.space.allocate(f"radix.keys{b}", n) for b in (0, 1)]
        p, r = self.config.n_processors, self.radix
        self.rhist = self.space.allocate("radix.hist", p * r)
        self.roffsets = self.space.allocate("radix.offsets", r * p)
        self.rtotals = self.space.allocate("radix.totals", r)
        for region in self.rkeys:
            self.place_partitions(region)
        self.place_partitions(self.rhist)      # row pid at pid's cluster
        # offsets: digit-major; slice owned by the digit-slice owner
        self.place_partitions(self.roffsets)

    def build_input(self) -> None:
        hi = self.radix ** self.n_digits
        self.key_input[:] = self.rng(0).integers(0, hi, size=self.n_keys)
        self.buffers[0][:] = self.key_input

    def _digit_slice(self, pid: int) -> range:
        """Digit values whose ranking processor ``pid`` is."""
        per = self.radix // self.config.n_processors
        if per == 0:
            # fewer digits than processors: low pids take one digit each
            return range(pid, pid + 1) if pid < self.radix else range(0)
        return range(pid * per, (pid + 1) * per)

    # ------------------------------------------------------------- emission
    def _phase_ops(self, digit: int, phase: str) -> tuple:
        """Every processor's ops of one phase of a pass (:meth:`span_table`).
        ``"hist"``: read its keys, count them (WORK 12 a key), write its
        histogram row.  ``"rank"``, a row per digit it ranks
        (:meth:`_digit_slice`): read the digit's column of every
        histogram row, WORK 2 a row, write the digit's offsets and its
        total.  ``"prefix"``, a row per digit slice: read the totals of
        every digit up to its first, WORK, rewrite its digits' offsets."""
        p, r, kpp = self.config.n_processors, self.radix, self.keys_per_proc
        per = len(self._digit_slice(0))  # a slice's digits, if it has any
        d = np.arange(0, min(r, p * per), per if phase == "prefix" else 1)
        if phase == "hist":
            q = np.arange(p)
            return self.span_table(
                (OP_READ, self.rkeys[digit % 2], q * kpp, kpp),
                (OP_WORK, 12 * kpp), (OP_WRITE, self.rhist, q * r, r))
        if phase == "rank":
            return self.span_table(
                *((OP_READ, self.rhist, q * r + d, 1) for q in range(p)),
                (OP_WORK, 2 * p), (OP_WRITE, self.roffsets, d * p, p),
                (OP_WRITE, self.rtotals, d, 1),
                edges=np.minimum(np.arange(p + 1) * per, len(d)))
        return self.span_table(
            (OP_READ, self.rtotals, 0, d + 1), (OP_WORK, d + 2 * per),
            *((OP_WRITE, self.roffsets, (d + m) * p, p) for m in range(per)),
            edges=np.minimum(np.arange(p + 1), len(d)))

    def _permute(self, digit: int) -> tuple:
        """Phase 3 of every processor at once: each key written to its
        ranked slot of the destination buffer, and every processor's
        ops, per key: its digit's offset (read at the digit's first
        key), the key, WORK 14 to rank it, and its ranked slot."""
        p, r, kpp = self.config.n_processors, self.radix, self.keys_per_proc
        src, dst = self.buffers[digit % 2], self.buffers[(digit + 1) % 2]
        digits = ((src // (r ** digit)) % r).reshape(p, kpp)
        within = _stable_rank_within(digits, r)
        ranks = (self._offsets[digits, np.arange(p)[:, None]]
                 + within).ravel()
        dst[ranks] = src
        args = np.empty((p * kpp, len(_SCATTER_OPS)), dtype=np.int64)
        args[:, 0] = element_addrs(self.roffsets, (
            digits * p + np.arange(p)[:, None]).ravel())
        args[:, 1] = element_addrs(self.rkeys[digit % 2], np.arange(p * kpp))
        args[:, 2] = 14
        args[:, 3] = element_addrs(self.rkeys[(digit + 1) % 2], ranks)
        keep = np.ones(args.shape, dtype=bool)
        keep[:, 0] = within.ravel() == 0
        return table_parts(_SCATTER_OPS, args, keep, np.arange(p + 1) * kpp)

    # -------------------------------------------------------------- program
    def program(self, pid: int) -> Iterator[Op]:
        r = self.radix
        kpp = self.keys_per_proc
        lo = pid * kpp

        def phases() -> Iterator[Iterable[Op]]:
            bar = PhaseBarriers()
            yield (Barrier(bar()),)

            for digit in range(self.n_digits):
                # ---- phase 1: local histogram --------------------------
                my_keys = self.buffers[digit % 2][lo:lo + kpp]
                digits = (my_keys // (r ** digit)) % r
                self._hist[pid, :] = np.bincount(digits, minlength=r)
                yield self.shared_batch((digit, "hist"), pid, lambda:
                                        self._phase_ops(digit, "hist"))
                yield (Barrier(bar()),)

                # ---- phase 2a: transposed rank reduction ---------------
                # I own a slice of digit values; read that column of every
                # processor's histogram row (the heavily shared access the
                # paper calls out) and publish within-digit processor
                # offsets plus my digits' totals.
                if digit != self._offsets_pass:
                    # numerics once per pass, identical for all processes
                    counts = self._hist.sum(axis=0)
                    digit_base = np.concatenate(([0], np.cumsum(counts)[:-1]))
                    within = np.cumsum(self._hist, axis=0) - self._hist
                    self._offsets[:, :] = digit_base[:, None] + within.T
                    self._offsets_pass = digit
                yield self.shared_batch((digit, "rank"), pid, lambda:
                                        self._phase_ops(digit, "rank"))
                yield (Barrier(bar()),)

                # ---- phase 2b: digit-base prefix -----------------------
                # Each slice owner folds the totals of all lower digits
                # into its offsets (the compact second reduction step that
                # replaces SPLASH's tree).
                yield self.shared_batch((digit, "prefix"), pid, lambda:
                                        self._phase_ops(digit, "prefix"))
                yield (Barrier(bar()),)

                # ---- phase 3: permutation ------------------------------
                yield self.shared_batch((digit, "scatter"), pid,
                                        lambda: self._permute(digit))
                yield (Barrier(bar()),)

        # a phase's numerics run only once its barrier has been passed,
        # and its ops pass through no generator frame of ours
        return chain.from_iterable(phases())

    # ------------------------------------------------------------- checking
    def result(self) -> np.ndarray:
        """The sorted keys (final destination buffer)."""
        return self.buffers[self.n_digits % 2].copy()

    def reference(self) -> np.ndarray:
        return np.sort(self.key_input)


def _stable_rank_within(digits: np.ndarray, radix: int) -> np.ndarray:
    """Rank of each key among the keys of its row with the same digit
    (stable order), for a row of digits or a table of them."""
    rows = np.atleast_2d(digits)
    keys = (rows + radix * np.arange(len(rows))[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    ranks = np.empty_like(keys)
    ranks[order] = np.arange(len(keys)) - np.searchsorted(keys[order],
                                                          keys[order])
    return ranks.reshape(digits.shape)
