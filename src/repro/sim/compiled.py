"""Compiled-trace execution: a captured program is one self-describing buffer.

The execution engine historically pulled one ``(opcode, arg)`` tuple per
simulated operation out of a per-processor Python generator.  Each pull is a
generator resumption plus a tuple allocation plus a tuple unpack — pure
interpreter overhead that dwarfs the simulated work for memory-light ops.
Worse, every sweep point regenerated the *identical* stream from scratch:
the reference stream of an application depends only on the problem
(app + kwargs + seed) and the stream-relevant machine fields
(:meth:`~repro.core.config.MachineConfig.trace_signature` — processor
count, line size, page size), **not** on cluster size, cache capacity,
latency table, or network model.  A cluster-size × cache-size grid can
therefore capture each app's program once and replay it everywhere.

This module provides that capture/replay layer:

* :class:`CompiledProgram` — one buffer laid out as the program's
  ``RPROTRC3`` blob: per-processor int64 opcode/arg columns, plus a
  **task table** for the task-queue codes, behind a JSON header.
  READ/WRITE operands are pre-divided by the line size and consecutive
  WORK ops are fused at compile time; the engine replays a program by
  iterating its ``memoryview`` columns, the native kernel by address;
* :func:`compile_program` — drain a generator-based program factory (and
  the bodies of its task queues) once into a :class:`CompiledProgram`;
* :func:`trace_key` — content hash identifying one compiled trace
  (version, app, kwargs, seed, stream-relevant machine fields);
* :class:`TraceCache` — process-wide in-memory LRU of compiled programs
  plus an optional persistent tier
  (:class:`~repro.core.resultcache.TraceStore`), so a sweep compiles each
  app once per process and ``--jobs`` worker processes share traces via
  disk.

**Task queues.**  What simulated time decides in a task-queue code
(Raytrace, Volrend) is one integer per grab — which task the processor
that holds the queue lock takes next — while the references a task emits
are a pure function of the task.  A capture therefore stores each task's
sub-stream once and a ``TASK q`` op (:func:`~repro.sim.program.Task`) in
the per-processor frame where the grab was; replay takes the next index
of a per-replay counter there, runs that sub-stream and returns to the
same ``TASK`` until the queue is empty.  The counter is taken at the
event where the generator would have been resumed, and the lock around
it serialises the takes, so take order *is* lock-grant order in either
interpreter and the trace is as machine-independent as a static app's.

**One layout, in memory and on disk.**  ``RPROTRC3`` is an aligned,
uncompressed int64 section per column (and one pair for the task table)
behind a JSON header that declares the item size and byte order (the
host's).  A capture packs its drained columns into a ``bytearray`` in
exactly that layout, once; :meth:`TraceCache.put` writes that buffer to
the :class:`~repro.core.resultcache.TraceStore` as it is, and
:meth:`CompiledProgram.from_file` maps a stored blob copy-on-write
(``mmap.ACCESS_COPY``) as the buffer of a program that is otherwise the
same object.  A mapped program costs ~0 resident bytes until touched,
its pages are shared between every process mapping the same blob
(``--jobs`` workers, the sweep daemon, parallel CLI runs), and the
native kernel (:mod:`repro.native`) replays any program by its buffer's
address — no decode, no copy.  The python engine iterates the columns
(``zip`` over two ``memoryview`` columns boxes one op at a time), so
paper-scale traces (512² LU ≈ 45 MB) stream through a bounded
footprint.  A blob written on a host of the other byte order fails to
decode, like any corrupt blob.

The in-memory LRU is governed by a **byte budget** (``_LRU_BYTES``,
256 MiB) that charges mapped programs a token constant — so paper-scale
mapped traces stay resident while in-memory ones are evicted by size —
and by a fixed count of mapped programs, because each mapping holds a
file descriptor.

Replay is **bit-identical** to generator execution: the engine's golden
and equivalence suites (``tests/test_golden_regression.py``,
``tests/test_compiled.py``, ``tests/test_tracestream.py``) compare
canonical ``RunResult`` JSON byte-for-byte.  A corrupted or stale disk
trace is never fatal — it decodes to a miss (with a warning) and the
program is regenerated.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import sys
import threading
import warnings
import zlib
from array import array
from collections import OrderedDict
from typing import Any, Mapping

from ..core.resultcache import TraceStore
from .program import (OP_BARRIER, OP_READ, OP_TASK, OP_UNLOCK, OP_WORK,
                      OP_WRITE, ProgramFactory)

__all__ = ["CompiledProgram", "TraceCache", "TraceDecodeError",
           "compile_program", "trace_key", "clear_memory_cache",
           "trace_cache_info"]

# The in-memory LRU's byte budget.  Sized so a full 9-app quick sweep (a
# few MB per in-memory trace) never evicts, while a single paper-scale
# in-memory trace (512² LU is ~45 MB of columns) still fits several times
# over.  Mapped traces are charged _MAPPED_RESIDENT_BYTES each, so the
# budget alone would admit ~64k of them.
_LRU_BYTES = 256 * 1024 * 1024

#: accounting charge for a mapped program: its python-side footprint is a
#: handful of memoryview objects; the column payload lives in the
#: (evictable, shared) page cache, not the heap
_MAPPED_RESIDENT_BYTES = 4096

#: the most mapped programs the LRU holds, least recently used evicted
#: first: CPython's mmap keeps a duplicate of the file's descriptor for
#: the mapping's life, and Linux's default soft limit is 1024 of them
_MAX_MAPPED = 128

#: serialization magic: bump the trailing digit on any format change so
#: stale cache entries from older versions decode as misses, not garbage
_MAGIC = b"RPROTRC3"

_ITEMSIZE = 8  # int64 columns


def _align8(n: int) -> int:
    return (n + 7) & ~7


class TraceDecodeError(ValueError):
    """A serialized compiled trace is corrupt, truncated, or incompatible."""


class CompiledProgram:
    """One program across all processors, as one ``RPROTRC3`` buffer.

    ``buffer`` is the whole blob: magic, uint32-LE header length, JSON
    header, zero pad to 8 bytes, then int64 sections back to back in host
    byte order — per processor ``ops`` then ``args``, then the task
    table's ``task_ops`` and ``task_args``.  ``section_offsets`` are
    their byte offsets in the buffer, in that order.  Every column is a
    ``memoryview.cast('q')`` slice of the buffer, whichever way the
    program was made: packed from drained columns (the constructor),
    copied from a blob (:meth:`from_bytes`) or mapped from a file
    (:meth:`from_file`, ``mapped`` is then true).

    ``ops[pid]`` / ``args[pid]`` are parallel columns: entry ``i`` is the
    ``i``-th operation of processor ``pid``.  Opcodes are the
    :mod:`repro.sim.program` constants; READ/WRITE args are **line
    numbers** (already divided by ``line_size``), all other args are
    verbatim.

    A program whose columns hold ``TASK q`` ops carries the **task
    table** they index: ``task_ops`` / ``task_args`` are one more column
    pair holding every task's sub-stream back to back, queue after queue,
    and ``task_lens[q][t]`` is the length of task ``t`` of queue ``q``.
    A static program's table is empty.

    Instances are immutable by convention (the engine only reads them, and
    the native kernel takes ``const`` pointers), so one compiled program
    can be replayed concurrently by any number of engines and shared
    through :class:`TraceCache`.
    """

    __slots__ = ("buffer", "section_offsets", "mapped", "n_processors",
                 "line_size", "source_ops", "task_lens", "ops", "args",
                 "task_ops", "task_args")

    def __init__(self, ops: list, args: list, line_size: int,
                 source_ops: int, *, tasks=None) -> None:
        """Pack int64 columns (``array('q')``, say) into a new buffer.

        ``tasks`` is ``(task_ops, task_args, task_lens)``, see above;
        ``source_ops`` is the operation count before WORK fusion (what a
        generator would yield).  The payload's CRC is computed here, once.
        """
        task_ops, task_args, task_lens = (
            tasks if tasks is not None else (array("q"), array("q"), []))
        if len(ops) != len(args):
            raise ValueError("ops/args column counts differ")
        if any(len(o) != len(a) for o, a in zip(ops, args)):
            raise ValueError("ops/args columns have unequal lengths")
        lens = [n for queue in task_lens for n in queue]
        if not (len(task_ops) == len(task_args) == sum(lens)) \
                or not all(isinstance(n, int) and n >= 0 for n in lens):
            raise ValueError("task table does not cover its columns")
        sections = [col for pair in zip(ops, args) for col in pair]
        sections += (task_ops, task_args)
        crc = 0
        for col in sections:
            crc = zlib.crc32(col, crc)
        header = {"n_processors": len(ops), "line_size": line_size,
                  "source_ops": source_ops, "counts": [len(o) for o in ops],
                  "tasks": task_lens, "itemsize": _ITEMSIZE,
                  "byteorder": sys.byteorder, "crc32": crc,
                  "payload_offset": 0}
        # the header records its own payload offset, which depends on the
        # header's length: fix-point it (at most a step or two)
        while True:
            text = json.dumps(header, sort_keys=True).encode("utf-8")
            offset = _align8(12 + len(text))
            if offset == header["payload_offset"]:
                break
            header["payload_offset"] = offset
        buf = bytearray(_MAGIC + len(text).to_bytes(4, "little") + text)
        buf += bytes(offset - len(buf))
        for col in sections:
            buf += col
        self._attach(buf, header, mapped=False)

    def _attach(self, buf, header, mapped: bool) -> None:
        """Become the program over ``buf``, whose ``header`` is valid."""
        self.buffer = buf
        self.mapped = mapped
        self.n_processors = len(header["counts"])
        self.line_size = header["line_size"]
        self.source_ops = header["source_ops"]
        self.task_lens = header["tasks"]
        n_task = sum(map(sum, self.task_lens))
        view = memoryview(buf)
        pos = header["payload_offset"]
        self.section_offsets, sections = [], []
        for n in [n for c in header["counts"] for n in (c, c)] + [n_task] * 2:
            self.section_offsets.append(pos)
            sections.append(view[pos:pos + n * _ITEMSIZE].cast("q"))
            pos += n * _ITEMSIZE
        self.ops, self.args = sections[:-2:2], sections[1:-2:2]
        self.task_ops, self.task_args = sections[-2:]

    def task_offsets(self) -> tuple[list[int], list[int]]:
        """The task table as both interpreters index it.

        ``(offsets, queue_end)``: numbering tasks across queues in table
        order, task ``k`` is entries ``[offsets[k], offsets[k + 1])`` of
        the task columns, and queue ``q`` hands out tasks
        ``queue_end[q - 1]`` (0 for the first queue) up to
        ``queue_end[q]``.
        """
        offsets, queue_end = [0], []
        for queue in self.task_lens:
            for n in queue:
                offsets.append(offsets[-1] + n)
            queue_end.append(len(offsets) - 1)
        return offsets, queue_end

    def streams(self) -> list:
        """One ``__next__`` per processor: what :meth:`Engine._loop
        <repro.sim.engine.Engine._loop>` pulls a replay's ops from.

        A static program's are ``zip`` over its column pairs.  A task
        program's are generators that expand every ``TASK`` in place
        (:func:`_expand_tasks`) around one take counter per queue, fresh
        for this replay and shared by all of them, so the loop never
        meets opcode 6.  A queue no column dispatches would never be
        drained; the kernel finds that out at the end of its run, here
        it is refused before the start.
        """
        ops, args = self.ops, self.args
        if not self.task_lens:
            return [zip(o, a).__next__ for o, a in zip(ops, args)]
        dispatched = {a for col, acol in zip(ops, args)
                      for o, a in zip(col, acol) if o == OP_TASK}
        for q, queue in enumerate(self.task_lens):
            if queue and q not in dispatched:
                raise ValueError(f"TASK {q}: {len(queue)} tasks in the "
                                 f"table and no TASK op to take them")
        offsets, queue_end = self.task_offsets()
        taken = [0, *queue_end[:-1]]
        return [_expand_tasks(zip(o, a), self.task_ops, self.task_args,
                              offsets, queue_end, taken).__next__
                for o, a in zip(ops, args)]

    # ----------------------------------------------------------------- size
    @property
    def total_ops(self) -> int:
        """Operations one replay executes, across all processors: the
        stored (post-fusion) ops of every column and of every task once,
        ``TASK`` dispatches themselves not counted."""
        total = sum(len(o) for o in self.ops)
        if self.task_lens:
            total += len(self.task_ops) - sum(o.tolist().count(OP_TASK)
                                              for o in self.ops)
        return total

    @property
    def nbytes(self) -> int:
        """Payload size: the buffer past its header (mapped or not)."""
        return len(self.buffer) - self.section_offsets[0]

    @property
    def resident_nbytes(self) -> int:
        """What this program charges against the in-memory LRU budget.

        A buffer on the heap costs its full payload; a mapped one lives in
        the shared, evictable page cache and costs a token constant.
        """
        return _MAPPED_RESIDENT_BYTES if self.mapped else self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "mapped" if self.mapped else "in memory"
        return (f"CompiledProgram({self.n_processors} processors, "
                f"{self.total_ops:,} ops, line_size={self.line_size}, "
                f"{kind})")

    # -------------------------------------------------------- serialization
    @classmethod
    def _adopt(cls, buf, *, mapped: bool = False,
               check_crc: bool = False) -> "CompiledProgram":
        """The program over ``buf``, a whole ``RPROTRC3`` blob.

        The one validator of stored bytes: magic, header, item size and
        byte order (the host's), and every section the header promises —
        columns and task table alike — against ``len(buf)``, so a header
        that lies is a :class:`TraceDecodeError`, never a read past the
        buffer.  Sections lie back to back in header order, so a negative
        length is the only way one could reach outside the payload.  The
        payload's CRC is read only with ``check_crc``.
        """
        try:
            if bytes(buf[:8]) != _MAGIC:
                raise TraceDecodeError("bad magic")
            hlen = int.from_bytes(buf[8:12], "little")
            if hlen <= 0 or 12 + hlen > len(buf):
                raise TraceDecodeError("truncated header")
            header = json.loads(bytes(buf[12:12 + hlen]).decode("utf-8"))
            if (header["itemsize"], header["byteorder"]) \
                    != (_ITEMSIZE, sys.byteorder):
                raise TraceDecodeError("foreign item size or byte order")
            lens = header["counts"] + [n for queue in header["tasks"]
                                       for n in queue]
            if not all(isinstance(n, int) and n >= 0 for n in lens):
                raise TraceDecodeError("bad section length")
            offset = header["payload_offset"]
            if (offset < 12 + hlen or offset % _ITEMSIZE
                    or offset + 2 * _ITEMSIZE * sum(lens) != len(buf)):
                raise TraceDecodeError("payload length mismatch")
            if check_crc and (zlib.crc32(memoryview(buf)[offset:])
                              != header["crc32"]):
                raise TraceDecodeError("payload CRC mismatch")
            program = cls.__new__(cls)
            program._attach(buf, header, mapped)
            return program
        except TraceDecodeError:
            raise
        except Exception as exc:  # truncated/garbled in any other way
            raise TraceDecodeError(f"undecodable trace: {exc!r}") from exc

    @classmethod
    def from_bytes(cls, blob) -> "CompiledProgram":
        """The program over a copy of ``blob`` — eager, CRC-checked.

        Raises :class:`TraceDecodeError` on any corruption: bad magic,
        truncation, malformed header, CRC mismatch, or an encoding written
        by an incompatible platform (item size / byte order).
        """
        return cls._adopt(bytearray(blob), check_crc=True)

    @classmethod
    def from_file(cls, path) -> "CompiledProgram":
        """The program over a memory mapping of a stored blob.

        The mapping is ``ACCESS_COPY`` (private copy-on-write): writable
        from Python's side — which ``ctypes.from_buffer`` requires for the
        zero-copy native hand-off — while the file itself is never
        modified and clean pages remain shared page-cache memory.  Map
        validation is **structural only** (:meth:`_adopt` without the
        CRC): a truncated blob fails here and degrades to a cache miss,
        while reading every payload byte to CRC it would defeat lazy
        paging — the format relies on the store's atomic writes, like
        every other consumer.

        Raises ``OSError`` if the file cannot be opened or mapped (a
        plain store miss: out of descriptors or address space says
        nothing about the blob) and :class:`TraceDecodeError` for anything
        wrong with its bytes.
        """
        with open(path, "rb") as fh:
            # rejected without mapping: another format, or an empty file
            if fh.read(8) != _MAGIC:
                raise TraceDecodeError("bad magic")
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        program = cls._adopt(mm, mapped=True)
        if hasattr(mm, "madvise"):  # replay touches columns in order
            mm.madvise(mmap.MADV_SEQUENTIAL)
        return program


def _expand_tasks(frame, task_ops, task_args, offsets, queue_end, taken):
    """``frame``'s ops with every ``TASK q`` expanded where it stands.

    The python half of ``TASK``'s semantics (``kernel.c`` has the other):
    a generator is resumed at the event where its processor wants its
    next op, and that is where the take happens — ``taken[q]`` is read
    and advanced, the task's sub-stream is yielded op by op, and control
    returns to the same ``TASK`` until queue ``q`` is empty.  Every
    processor's generator shares ``taken``, as the app's generators
    shared one python counter.  A task body is a leaf: a ``TASK`` inside
    one is refused when the task is taken.
    """
    for op in frame:
        if op[0] != OP_TASK:
            yield op
            continue
        q = op[1]
        if not 0 <= q < len(queue_end):
            raise ValueError(f"TASK {q}: no such queue "
                             f"(the program has {len(queue_end)})")
        while taken[q] < queue_end[q]:
            k = taken[q]
            taken[q] = k + 1
            body = task_ops[offsets[k]:offsets[k + 1]]
            if OP_TASK in body:
                raise ValueError(f"TASK inside a task body (task {k})")
            yield from zip(body, task_args[offsets[k]:offsets[k + 1]])


def _drain(gen, ops: array, args: array, line_size: int, was_work: bool,
           n_queues: int, phased: bool) -> tuple[int, bool, bool]:
    """Append ``gen``'s ops to a column pair as a trace stores them.

    Stops after a BARRIER when ``phased`` (else only at exhaustion).
    ``n_queues`` bounds the operand of a ``TASK``; a task body passes
    -1, which refuses them all.  Returns ``(source ops consumed, whether the
    last stored op is a WORK, whether a BARRIER stopped the drain)``.
    """
    append_op = ops.append
    append_arg = args.append
    n = 0
    for opcode, arg in gen:
        n += 1
        if opcode == OP_WORK:
            if arg < 0:
                raise ValueError(f"negative WORK cycles: {arg}")
            if was_work:
                args[-1] += arg
                continue
            was_work = True
        else:
            was_work = False
            if opcode == OP_READ or opcode == OP_WRITE:
                arg //= line_size
            elif not 0 <= opcode <= OP_UNLOCK:
                if opcode != OP_TASK:
                    raise ValueError(f"unknown opcode {opcode}")
                if not 0 <= arg < n_queues:
                    raise ValueError(
                        f"TASK {arg} inside a task body" if n_queues < 0
                        else f"TASK {arg}: no such queue (the program "
                             f"has {n_queues})")
                n -= 1  # a dispatch, not an op a generator yields
        append_op(opcode)
        append_arg(arg)
        if opcode == OP_BARRIER and phased:
            return n, was_work, True
    return n, was_work, False


def compile_program(program_factory: ProgramFactory, n_processors: int,
                    line_size: int, tasks=()) -> CompiledProgram:
    """Drain every processor's generator once into a :class:`CompiledProgram`.

    * READ/WRITE byte addresses become line numbers (divided by
      ``line_size`` here, once), hoisting the division out of the replay
      loop entirely;
    * a run of consecutive WORK ops collapses into one WORK carrying the
      summed cycles — SPMD emission helpers pad spans with WORK, so fusion
      typically removes 10-30% of stored ops;
    * operands are validated (negative WORK, unknown opcode) as they are
      stored; the replay loop checks them again, because a stored trace
      may come back from disk.

    ``tasks`` is the program's task queues: ``tasks[q]`` an iterable of
    op iterables, one per task of queue ``q`` in take order, which the
    factory's generators dispatch with ``Task(q)`` ops where a
    lock-protected python counter would have handed them out.  Each body
    is drained once, after the per-processor streams, into the program's
    task table.

    The drain is **barrier-phased**, mirroring the engine's interleaving at
    the granularity that matters: several applications (Radix's parallel
    prefix, Barnes' tree phases, the task-grid codes) compute shared Python
    state in one barrier phase that the next phase's streams read, so no
    generator may run ahead of a barrier until every generator has reached
    it.  Within a phase, generators advance in processor order — safe
    because SPMD phases are race-free between barriers (that is what the
    barrier is *for*; an app whose stream content depended on intra-phase
    timing would not be deterministic across machine organisations in the
    first place, and the equivalence suite would catch it).
    """
    if n_processors <= 0:
        raise ValueError("n_processors must be positive")
    if line_size <= 0:
        raise ValueError("line_size must be positive")
    all_ops = [array("q") for _ in range(n_processors)]
    all_args = [array("q") for _ in range(n_processors)]
    gens = [iter(program_factory(pid)) for pid in range(n_processors)]
    prev_was_work = [False] * n_processors
    source_ops = 0
    running = list(range(n_processors))
    while running:
        still_running = []
        for pid in running:
            n, prev_was_work[pid], at_barrier = _drain(
                gens[pid], all_ops[pid], all_args[pid], line_size,
                prev_was_work[pid], len(tasks), phased=True)
            source_ops += n
            if at_barrier:
                still_running.append(pid)
        running = still_running
    task_ops, task_args, task_lens = array("q"), array("q"), []
    for queue in tasks:
        lens = []
        for body in queue:
            before = len(task_ops)
            source_ops += _drain(body, task_ops, task_args, line_size,
                                 False, -1, phased=False)[0]
            lens.append(len(task_ops) - before)
        task_lens.append(lens)
    return CompiledProgram(all_ops, all_args, line_size, source_ops,
                           tasks=(task_ops, task_args, task_lens))


class ProgramRecorder:
    """Capture a program's streams *while* an engine executes them.

    The barrier-phased drain of :func:`compile_program` is correct only for
    applications whose streams are independent of intra-phase timing (or
    depend on it through a task queue alone, which a ``TASK`` op carries).
    Barnes violates that: its processors insert bodies into one tree under
    per-cell locks, so what each reads is the tree as the others have left
    it — something only a real engine run knows.  For it, wrap the
    factory::

        recorder = ProgramRecorder(app.program, n, line_size)
        result = engine.run(recorder.factory)
        program = recorder.finish()

    ``factory`` is a drop-in :data:`~repro.sim.program.ProgramFactory` that
    appends every yielded ``(opcode, arg)`` as it is to a raw column pair
    of its processor before handing it to the engine, so the capture is
    the *executed* interleaving by construction.  :meth:`finish` stores
    each raw pair through :func:`_drain`, the one rule
    :func:`compile_program` stores by (line division, WORK fusion), and
    replaying the result on an identically-configured machine is
    bit-identical.
    """

    def __init__(self, program_factory: ProgramFactory, n_processors: int,
                 line_size: int) -> None:
        if n_processors <= 0:
            raise ValueError("n_processors must be positive")
        if line_size <= 0:
            raise ValueError("line_size must be positive")
        self._factory = program_factory
        self.n_processors = n_processors
        self.line_size = line_size
        self._raw_ops = [array("q") for _ in range(n_processors)]
        self._raw_args = [array("q") for _ in range(n_processors)]

    def factory(self, pid: int):
        """The recording wrapper around ``program_factory(pid)``."""
        append_op = self._raw_ops[pid].append
        append_arg = self._raw_args[pid].append
        for op in self._factory(pid):
            append_op(op[0])
            append_arg(op[1])
            yield op

    def finish(self) -> CompiledProgram:
        """The capture as a :class:`CompiledProgram` (call after the run).

        Each raw pair is popped, so it is freed as soon as it is drained
        and the raw columns are gone before the program packs its
        buffer."""
        ops = [array("q") for _ in range(self.n_processors)]
        args = [array("q") for _ in range(self.n_processors)]
        source_ops = 0
        for o, a in zip(ops, args):
            source_ops += _drain(
                zip(self._raw_ops.pop(0), self._raw_args.pop(0)), o, a,
                self.line_size, False, 0, phased=False)[0]
        return CompiledProgram(ops, args, self.line_size, source_ops)


# --------------------------------------------------------------------- keys

def trace_key(app: str, app_kwargs: Mapping[str, Any], config: Any,
              seed: int, version: str | None = None,
              stream_invariant: bool = True) -> str:
    """Content hash identifying one compiled trace.

    Covers the package version, the application and its problem kwargs, the
    application seed, and the machine fields the reference stream actually
    depends on (:meth:`MachineConfig.trace_signature`).  Cluster size,
    cache capacity, associativity, latency table, and network model are
    deliberately **absent** — that is what lets a clustering sweep reuse
    one trace across its whole grid.

    With ``stream_invariant=False`` (Barnes, whose executed streams
    depend on simulated timing) the key instead covers the **complete**
    machine configuration: such a capture is only replayable at the exact
    configuration that recorded it.
    """
    if version is None:
        from .._version import __version__ as version
    payload = {
        "version": version,
        "app": app,
        "app_kwargs": dict(app_kwargs),
        "seed": seed,
        "stream": (config.trace_signature() if stream_invariant
                   else config.to_dict()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -------------------------------------------------------- process-wide LRU

_memory_lru: OrderedDict[str, CompiledProgram] = OrderedDict()
_memory_lru_bytes = 0
_memory_lru_mapped = 0
#: guards every read-modify-write of the three names above: an
#: in-process daemon runs points on a thread that shares this LRU
_memory_lru_lock = threading.Lock()


def clear_memory_cache() -> None:
    """Drop every in-memory trace (tests and cold benchmarks use this)."""
    global _memory_lru_bytes, _memory_lru_mapped
    with _memory_lru_lock:
        _memory_lru.clear()
        _memory_lru_bytes = _memory_lru_mapped = 0


def trace_cache_info() -> dict[str, Any]:
    """Process-wide trace-LRU accounting, the daemon's ``/stats`` →
    ``trace_cache``: live entries, how many are mapped (charged ≈ 0
    resident bytes), resident vs payload bytes, and the budget."""
    with _memory_lru_lock:
        programs = list(_memory_lru.values())
        resident = _memory_lru_bytes
    return {
        "entries": len(programs),
        "mapped_entries": sum(1 for p in programs if p.mapped),
        "resident_bytes": resident,
        "payload_bytes": sum(p.nbytes for p in programs),
        "budget_bytes": _LRU_BYTES,
    }


class TraceCache:
    """Two-tier cache of compiled programs.

    Tier 1 is a **process-wide** LRU of live :class:`CompiledProgram`
    objects — shared by every ``TraceCache`` instance in the process, so a
    study, its executor, and a process-pool worker all see each other's
    compilations.  It is bounded by a **byte budget** (``_LRU_BYTES``,
    256 MiB of :attr:`~CompiledProgram.resident_nbytes`) and holds at most
    ``_MAX_MAPPED`` mapped programs, one file descriptor each.  Tier 2 is
    an optional :class:`~repro.core.resultcache.TraceStore` on disk, which
    is what lets separate ``--jobs`` worker processes and separate CLI
    invocations reuse traces.  Disk loads are **memory-mapped**
    (zero-copy, ~0 resident cost).  Tier 1 is shared by threads too (an
    in-process daemon's point thread beside its host's own runs), so one
    module lock guards its order and its byte count.

    Instances are cheap and picklable (the LRU is module state, the store
    carries only a path), so executors ship them to pool workers as-is.
    """

    def __init__(self, store: TraceStore | None = None) -> None:
        self.store = store
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def _load_disk(self, key: str) -> CompiledProgram | None:
        """Map the store's blob for ``key`` (``None`` on miss).

        Maintains the store's hit/miss counters: a file that cannot be
        opened or mapped ⇒ store miss; readable but undecodable ⇒ store
        hit that this cache degrades to a miss.
        """
        store = self.store
        try:
            program = CompiledProgram.from_file(store.path_for(key))
        except OSError:
            store.misses += 1
            return None
        except TraceDecodeError as exc:
            store.hits += 1
            self._warn_corrupt(key, exc)
            return None
        store.hits += 1
        return program

    @staticmethod
    def _warn_corrupt(key: str, exc: Exception) -> None:
        warnings.warn(f"discarding corrupt compiled trace {key[:12]}… "
                      f"({exc}); regenerating", stacklevel=4)

    def get(self, key: str) -> CompiledProgram | None:
        """The cached program for ``key``, or ``None`` (counted as a miss).

        A corrupt disk entry degrades to a miss with a ``UserWarning``; the
        caller recompiles and :meth:`put` overwrites the bad entry.
        """
        with _memory_lru_lock:
            program = _memory_lru.get(key)
            if program is not None:
                _memory_lru.move_to_end(key)
                self.memory_hits += 1
                return program
        if self.store is not None:
            program = self._load_disk(key)
            if program is not None:
                self._remember(key, program)
                self.disk_hits += 1
                return program
        self.misses += 1
        return None

    def put(self, key: str, program: CompiledProgram) -> None:
        """Install ``program`` in both tiers (disk failures are swallowed);
        the store writes the program's buffer as it is."""
        self._remember(key, program)
        if self.store is not None:
            self.store.put_bytes(key, program.buffer)

    @staticmethod
    def _remember(key: str, program: CompiledProgram) -> None:
        global _memory_lru_bytes, _memory_lru_mapped
        with _memory_lru_lock:
            old = _memory_lru.pop(key, None)
            if old is not None:
                _memory_lru_bytes -= old.resident_nbytes
                _memory_lru_mapped -= old.mapped
            _memory_lru[key] = program
            _memory_lru_bytes += program.resident_nbytes
            _memory_lru_mapped += program.mapped
            while len(_memory_lru) > 1 and _memory_lru_bytes > _LRU_BYTES:
                _, evicted = _memory_lru.popitem(last=False)
                _memory_lru_bytes -= evicted.resident_nbytes
                _memory_lru_mapped -= evicted.mapped
            if _memory_lru_mapped > _MAX_MAPPED:  # one over: the oldest goes
                oldest = next(k for k, p in _memory_lru.items() if p.mapped)
                _memory_lru_bytes -= _memory_lru.pop(oldest).resident_nbytes
                _memory_lru_mapped -= 1

    # ------------------------------------------------------------- plumbing
    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def stats(self) -> str:
        """``'N memory + M disk hits, K misses'`` summary for logs."""
        return (f"{self.memory_hits} memory + {self.disk_hits} disk hits, "
                f"{self.misses} misses")

    def __repr__(self) -> str:  # pragma: no cover
        return f"TraceCache(store={self.store!r}, {self.stats()})"
