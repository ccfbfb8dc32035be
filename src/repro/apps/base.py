"""Application framework: SPMD programs that really compute and emit
shared-memory reference streams.

Each application in :mod:`repro.apps` mirrors its SPLASH counterpart at the
level the paper's results depend on: the partitioning of shared data, the
phase/barrier structure, the communication topology, and the shape and size
of the per-process working sets.  The numerics are real — LU factorizes,
FFT transforms, Radix sorts, rays intersect spheres — so unit tests can
check each code against an independent reference, and the reference streams
are the streams of the actual algorithm, not a synthetic trace.

Conventions shared by all applications:

* **SPMD with global barriers.**  Every processor runs
  :meth:`Application.program` with its own id; barrier ids are drawn from a
  per-program :class:`PhaseBarriers` counter, which is safe because all
  processes pass the same barrier sequence.
* **Shared data lives in named regions** of one :class:`AddressSpace`;
  element-granularity ``Read``/``Write`` operations are emitted for shared
  accesses.  Private computation (including stack traffic, which the paper
  allocates locally so it always hits) is folded into ``Work`` cycles.
* **Placement**: applications that place data (paper §3.1) call
  :meth:`Application.place_partitions`, which assigns each processor's
  partition to that processor's *cluster* — so co-clustered processors'
  partitions share a home, exactly as on the simulated machine.
* **Determinism**: all randomness flows from ``numpy.random.default_rng``
  seeded with ``(app seed, processor id)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from copy import deepcopy
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.compiled import CompiledProgram

import numpy as np

from ..core.config import MachineConfig
from ..core.metrics import RunResult
from ..memory import make_memory_system
from ..memory.address import AddressSpace, Region
from ..memory.allocation import PageAllocator
from ..sim.engine import Engine
from ..sim.program import (OP_READ, OP_WORDS, OP_WORK, OP_WRITE, Barrier,
                           Batch, Lock, Op, Read, Task, Unlock, Write)

__all__ = ["Application", "PhaseBarriers", "TileQueueApplication",
           "direct_acceleration", "element_addrs", "proc_grid_shape",
           "row_dots", "softened_pull", "table_parts"]


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row ``i``, with the bits of each
    per-vector ``@`` (and so ``np.sqrt(row_dots(v, v))`` has the bits of
    ``np.linalg.norm(v[i])``).

    An app that advances its numerics as batches of rows must produce the
    bits one ``@`` per row produced.  A stacked ``matmul`` of 1×k by k×1
    runs the same dot kernel as a 1-D ``@``; ``einsum``, ``(a * b).sum(1)``
    and the python sum of products round differently (the dot kernel may
    fuse multiply-add).  ``tests/test_apps_batch_bits.py`` checks the
    equality, so a numpy or BLAS change that broke it fails there by name.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def element_addrs(region: Region, index: np.ndarray) -> np.ndarray:
    """``region.element(i)`` of every ``i`` of an integer array, as an
    int64 array, bounds-checked once: by its least and greatest index.
    An address outside int64, which the array cannot hold, is a
    :class:`ValueError` naming it."""
    if index.size:
        for addr in map(region.element, (int(index.min()), int(index.max()))):
            if not -2 ** 63 <= addr < 2 ** 63:
                raise ValueError(f"element address {addr} outside int64, "
                                 f"which a batch cannot hold")
    return region.base + index.astype(np.int64) * region.element_size


def softened_pull(m: np.ndarray | float, d: np.ndarray,
                  eps2: float) -> tuple[np.ndarray, np.ndarray]:
    """``(r2, m·d / (r2·√r2))`` per row of ``d``, with ``r2 = d·d + eps2``
    and ``m`` one mass per row or one for every row.

    Barnes and FMM evaluate their interactions as batches of rows and must
    produce the bits one ``d @ d`` per pair produced (:func:`row_dots`).
    Callers accumulate the pulls in visit order (``np.add.at``), never
    with ``sum``, for the same reason.
    """
    r2 = row_dots(d, d) + eps2
    return r2, np.reshape(m, (-1, 1)) * d / (r2 * np.sqrt(r2))[:, None]


def direct_acceleration(app: Any, body: int) -> np.ndarray:
    """O(n) reference acceleration of ``body`` from ``app``'s ``pos``,
    ``mass`` and ``eps2``: the tests' check on Barnes' and FMM's force
    phases, which bind it as their ``direct_acceleration`` method."""
    d = app.pos - app.pos[body]
    r2 = np.einsum("ij,ij->i", d, d) + app.eps2
    r2[body] = 1.0
    w = app.mass / (r2 * np.sqrt(r2))
    w[body] = 0.0
    return (w[:, None] * d).sum(axis=0)


class PhaseBarriers:
    """Sequential barrier-id source for one process.

    All processes of an SPMD program create their own instance and call it
    at the same program points, so matching calls produce matching ids.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def __call__(self) -> int:
        bid = self._next
        self._next += 1
        return bid


def proc_grid_shape(n_processors: int) -> tuple[int, int]:
    """Near-square (rows, cols) factorization of the processor count.

    Ocean/Raytrace/Volrend partition a 2-D plane over a processor grid; for
    the paper's 64 processors this is 8×8.  Columns ≥ rows so that
    consecutive processor ids sweep along a row (the adjacency clustering
    exploits).
    """
    rows = int(np.sqrt(n_processors))
    while n_processors % rows:
        rows -= 1
    return rows, n_processors // rows


def table_parts(opcodes: np.ndarray, args: np.ndarray, keep: np.ndarray,
                edges=None) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """A table's ``keep`` cells, row after row, as a
    :class:`~repro.sim.program.Batch`'s ``(opcodes, args, edges)``:
    ``opcodes`` broadcast against the table ``args`` (the opcode of each
    column, say), and part ``k`` is its rows ``edges[k]:edges[k + 1]``
    (without ``edges``, one part of every row)."""
    ops = np.broadcast_to(opcodes, args.shape)[keep]
    return ops, args[keep], ([0, len(ops)] if edges is None else np.append(
        0, np.cumsum(keep.sum(axis=1)))[edges].tolist())


class Application(ABC):
    """Base class for the nine workloads.

    Subclasses implement :meth:`place`, :meth:`build_input` (if they
    compute on an input problem) and :meth:`program` (the per-processor
    operation stream).  ``run()`` wires everything into the engine.

    Parameters
    ----------
    config:
        Machine organisation the run will use.
    seed:
        Master seed for all application randomness.
    """

    #: short registry name, set by subclasses
    name: str = "base"

    #: whether one capture (:meth:`compiled_program`) replays on every
    #: machine sharing this config's
    #: :meth:`~repro.core.config.MachineConfig.trace_signature` (processor
    #: count, line/page size).  Barnes sets this False: its processors
    #: insert bodies into a tree the others are building, so what each
    #: reads depends on simulated timing — capture requires
    #: :meth:`run_recorded`, and a capture is only valid for the exact
    #: machine configuration that produced it.  (The tile-queue codes are
    #: invariant at task granularity: :class:`TileQueueApplication`.)
    stream_invariant: bool = True

    #: how many leading barriers close a phase whose streams depend on
    #: simulated timing: :meth:`run_recorded` runs the engine only up to
    #: that barrier and drains the phases after it.  ``None`` (every
    #: one) records the whole run; Barnes, whose tree build alone is
    #: timed, declares its last build barrier.
    timed_barriers: int | None = None

    #: true only while a capture drains :meth:`program` (:meth:`_items`):
    #: a batch's part is then one ``OP_WORDS`` item for the drain, never
    #: per-op tuples
    _draining: bool = False

    def __init__(self, config: MachineConfig, seed: int = 12345) -> None:
        self.config = config
        self.seed = seed
        self.space = AddressSpace(page_size=config.page_size,
                                  line_size=config.line_size)
        self.allocator = PageAllocator(config.n_clusters, config.page_size,
                                       config.line_size)
        self._placed = self._setup_done = False
        #: :meth:`shared_batch`'s batches, by key, with the processors
        #: that have not taken their part yet
        self._shared: dict[Any, tuple[Batch, set[int]]] = {}

    # ------------------------------------------------------------ lifecycle
    def setup(self) -> None:
        """:meth:`place`, then :meth:`build_input`."""
        self.place()
        self.build_input()

    @abstractmethod
    def place(self) -> None:
        """Allocate and place the shared regions: all a replay reads."""

    def build_input(self) -> None:
        """Build the input problem :meth:`program` computes on."""

    @abstractmethod
    def program(self, pid: int) -> Iterator[Op]:
        """The operation stream of processor ``pid``."""

    def ensure_placed(self) -> None:
        """:meth:`place`, once: what a replay of a capture needs."""
        if not self._placed:
            self.place()
            self._placed = True

    def ensure_setup(self) -> None:
        """The whole set-up, once: what running :meth:`program` needs."""
        if not self._setup_done:
            self.ensure_placed()
            self.build_input()
            self._setup_done = True

    def compiled_program(self) -> "CompiledProgram":
        """Capture this application's operation streams once, for replay.

        Drains :meth:`program` for every processor into a
        :class:`~repro.sim.compiled.CompiledProgram` (flat arrays, line
        numbers pre-divided, consecutive WORK ops fused).  The capture is
        valid for any machine sharing this config's
        :meth:`~repro.core.config.MachineConfig.trace_signature` — cluster
        size, cache sizing, and the network model may all differ.

        Only available when :attr:`stream_invariant` holds; Barnes must
        capture with :meth:`run_recorded` instead (its streams depend on
        simulated timing, which a static drain cannot know).
        """
        if not self.stream_invariant:
            raise ValueError(
                f"{self.name} streams depend on simulated timing "
                f"(stream_invariant=False); capture with run_recorded()")
        self.ensure_setup()
        return self._capture(self.program)

    @contextmanager
    def _items(self):
        """Batches are drain items inside the block, per-op tuples
        again after it (for :meth:`run`, the engine half of
        :meth:`recorded_program`, a caller's own drain), whether it
        returned or raised."""
        self._draining = True
        try:
            yield
        finally:
            self._draining = False

    def _capture(self, factory, tasks=()) -> "CompiledProgram":
        """:func:`~repro.sim.compiled.compile_program` of ``factory`` on
        this app's machine, with every batch drained as items."""
        from ..sim.compiled import compile_program

        with self._items():
            return compile_program(factory, self.config.n_processors,
                                   self.config.line_size, tasks=tasks)

    def recorded_program(self) -> "CompiledProgram":
        """Capture the streams as an engine run decides them.

        Works for every application — Barnes is the one that needs it.
        The generators run on the python engine, recorded, up to their
        :attr:`timed_barriers`-th barrier, against a copy of the
        allocator; the phases after it are drained barrier-phased, as
        :meth:`compiled_program` drains, batches as items
        (:class:`~repro.sim.compiled.ProgramRecorder`).  The engine's
        own result is discarded: :meth:`replay` of the capture binds
        pages from setup's placement, as a trace-hit replay does, and is
        bit-identical to the generators' run.  For
        :attr:`stream_invariant` apps the capture is additionally valid
        across cluster/cache/network variations, like
        :meth:`compiled_program`'s.
        """
        from ..sim.compiled import ProgramRecorder

        self.ensure_setup()
        memory = make_memory_system(self.config, deepcopy(self.allocator))
        recorder = ProgramRecorder(self.program, self.config.n_processors,
                                   self.config.line_size, self.timed_barriers)
        Engine(self.config, memory).run(recorder.factory)
        with self._items():
            return recorder.finish()

    def run_recorded(self) -> "tuple[RunResult, CompiledProgram]":
        """:meth:`recorded_program`, and the result of its :meth:`replay`."""
        program = self.recorded_program()
        return self.replay(program)[0], program

    def replay(self, program: "CompiledProgram") -> "tuple[RunResult, str]":
        """Replay a capture on this app's machine; returns the result and
        the kernel that ran it.

        The native C kernel serves the point when selected and eligible
        (:func:`~repro.sim.nativereplay.try_replay_native` — byte-
        identical to the python replay, and the allocator left as it
        was); everything else runs on :meth:`run`'s python replay.
        """
        from ..sim.nativereplay import try_replay_native

        result = try_replay_native(self.config, self, program)
        if result is not None:
            return result, "native"
        return self.run(program=program), "python"

    def run(self, program: "CompiledProgram | None" = None,
            memory=None) -> RunResult:
        """Simulate this application on ``self.config`` and return the result.

        With ``program`` (a :class:`~repro.sim.compiled.CompiledProgram`,
        typically from :meth:`compiled_program` or a trace cache), the
        engine replays the capture instead of re-driving the generators —
        bit-identical, much faster — and only :meth:`place` runs: data
        *placement* depends on cluster geometry even though the operation
        streams do not.

        ``memory`` is a memory system the caller keeps to read afterwards
        (a :class:`~repro.sim.trace.TracingMemory`, a snoopy back end for
        its cache-to-cache count, a
        :class:`~repro.sim.engine.PerfectMemory`); by default the one
        ``self.config.protocol`` selects is built over this app's
        allocator.
        """
        self.ensure_setup() if program is None else self.ensure_placed()
        if memory is None:
            memory = make_memory_system(self.config, self.allocator)
        engine = Engine(self.config, memory)
        if program is not None:
            return engine.run_compiled(program)
        return engine.run(self.program)

    # ---------------------------------------------------------- rng helpers
    def rng(self, *stream: int) -> np.random.Generator:
        """Deterministic generator for a named stream (e.g. a processor id)."""
        return np.random.default_rng([self.seed, *stream])

    # ------------------------------------------------------ placement helpers
    def place_partitions(self, region: Region, n_partitions: int | None = None) -> None:
        """Place partition ``i`` of ``region`` at processor ``i``'s cluster.

        This is the SPLASH "my partition in my local memory" idiom under
        clustering: partitions of co-clustered processors share a home.
        With ``n_partitions=None`` the region splits over all processors.
        """
        p = self.config.n_processors
        n = p if n_partitions is None else n_partitions
        if n <= 0:
            raise ValueError("n_partitions must be positive")
        chunk = region.size // n
        if chunk == 0:
            self.allocator.place_region(region, 0)
            return
        self.allocator.place_chunks(region.base, region.end, chunk, list(
            map(self.config.cluster_of, (i % p for i in range(n)))))

    # ------------------------------------------------------ emission helpers
    def span_table(self, *records, edges=None) -> tuple:
        """A table of span records, a record a column, as one
        :class:`~repro.sim.program.Batch`'s ``(opcodes, args, edges)``,
        taken row after row.  ``(opcode, region, index, count)`` is the
        span of ``count`` elements of ``region`` from element ``index``
        (its first bounds-checked): per line, ``opcode`` at the span's
        first byte in it, then a WORK of the span's other elements in it,
        if any (no op for a count of 0).  ``(OP_WORK, cycles)`` is that
        one op.  The fields broadcast over the table's rows, and part
        ``k`` is index ``k`` of their first axis, or with ``edges`` the
        rows ``edges[k]:edges[k + 1]``.  A batch holds byte addresses as
        int64: a span with a byte outside int64 is a :class:`ValueError`
        naming its op whose line holds the first (the rest of the
        arithmetic is on offsets from a span's first byte)."""
        shape = np.broadcast_shapes(*(np.shape(field) for record in records
                                      for field in record[2:] or record[1:]))
        operands = np.zeros((*shape, len(records)), dtype=np.int64)
        counts = np.zeros_like(operands)
        esz = np.ones_like(operands)
        line_size = self.config.line_size
        for k, record in enumerate(records):
            if record[0] == OP_WORK:
                operands[..., k] = record[1]
                continue
            opcode, region, index, counts[..., k] = record
            esz[..., k] = size = region.element_size
            live = counts[..., k] > 0
            if not live.any():
                continue
            # a dead span's first element is a live one's
            index = np.where(live, index, np.where(
                live, index, 2 ** 63 - 1).min())
            least = int(index.min())
            low = region.element(least)
            region.element(int(index.max()))
            stop = index + counts[..., k]
            if low < -2 ** 63 or region.base + int(stop.max()) * size > 2 ** 63:
                at = low if low < -2 ** 63 else max(
                    2 ** 63 // line_size * line_size,
                    region.element(int(index.flat[stop.argmax()])))
                raise ValueError(f"{('READ', 'WRITE')[opcode - OP_READ]} {at}"
                                 f": a span byte outside int64, which a "
                                 f"batch cannot hold")
            operands[..., k] = low + (index - least) * size
        rows = (np.arange(len(operands) + 1) if edges is None
                else np.asarray(edges)) * int(np.prod(operands.shape[1:]))
        opcodes = np.tile([record[0] for record in records], counts.size
                          // len(records))
        operands, counts, esz = operands.ravel(), counts.ravel(), esz.ravel()
        span = (opcodes == OP_READ) | (opcodes == OP_WRITE)
        off = operands % line_size  # a span's first byte in its line
        nbytes = counts * esz
        n_lines = np.where(span, np.where(counts > 0, (off + nbytes - 1)
                                          // line_size + 1, 0), 1)
        rec = np.repeat(np.arange(len(opcodes)), n_lines)
        line = np.arange(len(rec)) - (np.cumsum(n_lines) - n_lines)[rec]
        first = line * line_size - off[rec]  # a line's, from its span's
        lo = np.maximum(first, 0)
        span = span[rec]
        ops = np.full(2 * len(rec), OP_WORK, dtype=np.int64)
        args = np.empty(2 * len(rec), dtype=np.int64)
        ops[::2] = opcodes[rec]
        args[::2] = operands[rec] + lo
        args[1::2] = (np.minimum(first + line_size, nbytes[rec]) - lo) \
            // esz[rec] - 1
        keep = np.ones(len(ops), dtype=bool)
        keep[1::2] = span & (args[1::2] > 0)
        return ops[keep], args[keep], np.searchsorted(
            np.repeat(rec, 2)[keep], rows).tolist()

    def op_batch(self, opcodes: np.ndarray,
                 args: np.ndarray) -> Iterable[Op]:
        """A batch of ops built as arrays: ``(opcodes[i], args[i])`` in
        order, READ/WRITE operands as byte addresses (a table's kept
        cells through :func:`table_parts`, say).  It is a one-part
        :class:`~repro.sim.program.Batch`, emitted as :meth:`_part`."""
        return self._part(Batch(opcodes.astype(np.int64, copy=False),
                                args.astype(np.int64, copy=False),
                                [0, len(opcodes)]), 0)

    def shared_batch(self, key: Any, pid: int, build) -> Iterable[Op]:
        """Processor ``pid``'s part, as :meth:`_part`, of a phase's ops
        that are a function of ``key`` and the processor alone.
        ``build()`` makes every processor's at once, as ``(opcodes,
        args, edges)`` (:meth:`span_table`, say): the phase is one
        :class:`~repro.sim.program.Batch`, so numpy's cost is paid once
        per phase, by the app and by the drain.  It is dropped once
        every processor has taken its part."""
        entry = self._shared.get(key)
        if entry is None or pid not in entry[1]:
            entry = self._shared[key] = (
                Batch(*build()), set(range(self.config.n_processors)))
        batch, left = entry
        left.remove(pid)
        if not left:
            del self._shared[key]
        return self._part(batch, pid)

    def _part(self, batch: Batch, k: int) -> Iterable[Op]:
        """Part ``k`` of ``batch``.  While a capture drains
        (:meth:`_items`), it is the one item ``(OP_WORDS, (batch, k))``,
        which the drain stores as words at C speed; at any other time it
        is the same ops as tuples of python ints, so the engine only
        ever sees ops.  An app has one emission path either way."""
        if self._draining:
            return ((OP_WORDS, (batch, k)),)
        a, b = batch.edges[k], batch.edges[k + 1]
        return zip(batch.opcodes[a:b].tolist(), batch.args[a:b].tolist())

    def place_interleaved(self, region: Region) -> None:
        """Place a region's pages round-robin across clusters.

        This is the paper's "distributed randomly among processors" for the
        read-only scene/volume data of Raytrace and Volrend: no owner, pages
        spread evenly so no home cluster becomes a hot spot.
        """
        page, n = self.config.page_size, self.config.n_clusters
        first = region.base // page
        self.allocator.place_chunks(first * page, region.end, page, [
            k % n for k in range((region.end - 1) // page - first + 1)])

    def partition_edges(self, total: int) -> list[int]:
        """Where each processor's :meth:`partition_slice` of ``total``
        starts, then ``total``: the edges of a batch a row per item."""
        return [self.partition_slice(total, pid).start
                for pid in range(self.config.n_processors)] + [total]

    def update_ops(self, region: Region, stride: int, total: int,
                   cycles: int) -> tuple:
        """Every processor's ops of an update of its
        :meth:`partition_slice` of ``total`` records of ``region``,
        ``stride`` elements each: per record, read its first element,
        work ``cycles``, write it."""
        at = np.arange(total) * stride
        return self.span_table(
            (OP_READ, region, at, 1), (OP_WORK, cycles),
            (OP_WRITE, region, at, 1), edges=self.partition_edges(total))

    def partition_slice(self, total: int, pid: int) -> range:
        """Contiguous share of ``total`` items owned by processor ``pid``."""
        per, extra = divmod(total, self.config.n_processors)
        lo = pid * per + min(pid, extra)
        return range(lo, lo + per + (pid < extra))

    # ------------------------------------------------------------- describe
    def describe(self) -> str:
        """One-line description used by the CLI and experiment logs."""
        return f"{self.name} on {self.config.describe()}"


class TileQueueApplication(Application):
    """An image-plane code whose processors take tiles from one queue.

    Raytrace and Volrend render a ``width`` x ``height`` image in
    ``queue_tile``-square tiles handed out by a lock-protected global
    counter (SPLASH's task queues and task stealing: a static partition
    idles the processors whose tiles miss the scene).  Which tile a
    processor takes next is decided by the order the simulated machine
    grants that lock — and it is the *only* thing simulated time decides:
    the references a tile emits, :meth:`tile_ops`, are a pure function of
    the tile.  So the app is stream-invariant at task granularity:

    * :meth:`program` is the code as a processor runs it — take a tile
      under the lock, render it, repeat — with the counter in python;
    * :meth:`compiled_program` captures the same thing once, with no
      engine and no memory system, as a seven-op per-processor frame
      whose ``TASK 0`` stands where the python counter was, plus one
      sub-stream per tile (:func:`~repro.sim.program.Task`).  The take
      happens at the same event either way, so the trace replays
      bit-identically on every cluster size, cache, protocol and network.

    Subclasses allocate ``rqueue`` (the queue head) and ``rpixels`` in
    :meth:`place` and implement :meth:`_render`, which fills ``image``
    for a row of tiles at once and returns each tile's ops as arrays.
    """

    #: side of a queued tile, in pixels
    queue_tile = 4

    def __init__(self, config: MachineConfig, width: int, height: int,
                 seed: int) -> None:
        super().__init__(config, seed)
        self.pr, self.pc = proc_grid_shape(config.n_processors)
        if height % self.pr or width % self.pc:
            raise ValueError(
                f"image {width}x{height} must tile over the {self.pr}x"
                f"{self.pc} processor grid")
        qt = self.queue_tile
        if height % qt or width % qt:
            raise ValueError("queue_tile must divide the image dimensions")
        self.width, self.height = width, height
        self.tile_h, self.tile_w = height // self.pr, width // self.pc
        self.n_tiles = (height // qt) * (width // qt)
        self.image = np.zeros((height, width))
        self._next_tile = 0
        #: tile -> its ops, for the rendered tiles not yet emitted
        self._pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @abstractmethod
    def _render(self, tiles: range) -> dict[int, tuple[np.ndarray,
                                                       np.ndarray]]:
        """Render ``tiles`` into ``image``; return each one's references
        as ``(opcodes, operands)`` arrays (:meth:`op_batch`)."""

    def tile_ops(self, tile: int) -> Iterable[Op]:
        """Tile ``tile``'s references, rendered into ``image``, as one
        batch.  A tile's ops are a function of the tile alone, so the
        numerics run for its whole row of tiles at once
        (:meth:`_render`), and the row's other tiles wait in
        ``_pending`` for their turn."""
        if tile not in self._pending:
            per_row = self.width // self.queue_tile
            row = tile // per_row * per_row
            self._pending.update(self._render(range(row, row + per_row)))
        return self.op_batch(*self._pending.pop(tile))

    def begin_render(self) -> None:
        """Reset what one rendering of the image accumulates."""
        self._next_tile = 0
        self.image.fill(0.0)
        self._pending.clear()

    def tile_pixels(self, tile: int) -> Iterator[tuple[int, int]]:
        """``(py, px)`` of every pixel of a tile, row by row."""
        qt = self.queue_tile
        ty, tx = divmod(tile, self.width // qt)
        for py in range(ty * qt, (ty + 1) * qt):
            for px in range(tx * qt, (tx + 1) * qt):
                yield py, px

    def _pixel_elem(self, py: int, px: int) -> int:
        """Tile-contiguous pixel layout ([proc][local row][local col]),
        like Ocean's grid."""
        pi, li = divmod(py, self.tile_h)
        pj, lj = divmod(px, self.tile_w)
        return ((pi * self.pc + pj) * self.tile_h + li) * self.tile_w + lj

    def program(self, pid: int) -> Iterator[Op]:
        """Render via the dynamic tile queue."""
        bar = PhaseBarriers()
        self.begin_render()  # runs in every program before any grab
        qaddr = self.rqueue.element(0)
        yield Barrier(bar())
        while True:
            yield Lock(0)
            yield Read(qaddr)
            tile = self._next_tile
            self._next_tile += 1
            yield Write(qaddr)
            yield Unlock(0)
            if tile >= self.n_tiles:
                break
            yield from self.tile_ops(tile)
        yield Barrier(bar())

    def compiled_program(self) -> "CompiledProgram":
        """Capture :meth:`program` once, for every machine (see the class).

        The frame is :meth:`program` up to its first take; a task is what
        runs from one take to the next — the rest of the grab that took
        it, the tile, and the next grab up to *its* take — so replay
        executes exactly the ops the generators would have.
        """
        self.ensure_setup()
        self.begin_render()
        qaddr = self.rqueue.element(0)

        def frame(pid: int) -> Iterator[Op]:
            bar = PhaseBarriers()
            return iter((Barrier(bar()), Lock(0), Read(qaddr), Task(0),
                         Write(qaddr), Unlock(0), Barrier(bar())))

        def parts(tile: int) -> Iterator[Iterable[Op]]:
            yield (Write(qaddr), Unlock(0))
            yield self.tile_ops(tile)
            yield (Lock(0), Read(qaddr))

        def task(tile: int) -> Iterator[Op]:
            # the tile runs when the drain reaches it, and its ops pass
            # through no generator frame of ours
            return chain.from_iterable(parts(tile))

        return self._capture(
            frame, tasks=[[task(tile) for tile in range(self.n_tiles)]])
