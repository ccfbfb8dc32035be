"""Reference models the property suites check production code against.

* :class:`RefDirectory` — the pre-kernelization directory, one
  :class:`DirEntry` object per line, keyed by line, with the same
  transition semantics as :class:`repro.memory.directory.Directory` over
  line records.  ``tests/test_memcore_properties.py`` checks that the
  production directory's lines equal the reference's *live* entries
  (those with a sharer bit) exactly.
* :class:`RefDLSMemorySystem` — the ``"dls"`` protocol written out plainly
  over the production :class:`repro.memory.cache.Cache`, which
  ``tests/test_protocols.py`` drives beside
  :class:`repro.memory.dls.DLSMemorySystem` step for step.
* :func:`words` — a trace's word column from parallel opcode and operand
  lists, as ``docs/INTERNALS.md`` §4 defines a word, so the trace suites
  build programs without the capture's own encoder.

They live beside the tests because nothing in ``src/`` imports them: they
are a test oracle, not part of the simulator.  (The cache itself is checked
against a per-set LRU list model in ``tests/test_memcore_properties.py``.)
"""

from __future__ import annotations

from array import array

from repro.core.config import LatencyModel
from repro.memory.cache import EXCLUSIVE, SHARED, Cache
from repro.memory.directory import (DIR_EXCLUSIVE, DIR_SHARED,
                                    NOT_CACHED)

__all__ = ["DirEntry", "RefDirectory", "RefDLSMemorySystem", "words"]


def words(ops, args) -> array:
    """One int64 word per op: ``arg << 3 | opcode`` (opcode in 0..7)."""
    assert len(ops) == len(args) and all(0 <= op <= 7 for op in ops)
    return array("q", [arg << 3 | op for op, arg in zip(ops, args)])


class DirEntry:
    """Directory state for one line: state + sharer bit vector (reference)."""

    __slots__ = ("state", "sharers")

    def __init__(self) -> None:
        self.state = NOT_CACHED
        self.sharers = 0

    def add_sharer(self, cluster: int) -> None:
        self.sharers |= 1 << cluster

    def remove_sharer(self, cluster: int) -> None:
        self.sharers &= ~(1 << cluster)

    def only_sharer_is(self, cluster: int) -> bool:
        return self.sharers == 1 << cluster

    def sharer_list(self) -> list[int]:
        out = []
        bits = self.sharers
        cluster = 0
        while bits:
            if bits & 1:
                out.append(cluster)
            bits >>= 1
            cluster += 1
        return out

    @property
    def owner(self) -> int:
        if self.state != DIR_EXCLUSIVE:
            raise ValueError("owner undefined unless directory state is EXCLUSIVE")
        return self.sharers.bit_length() - 1


class RefDirectory:
    """Map from line number to :class:`DirEntry`, created on demand.

    Dead (NOT_CACHED, empty mask) entries stay; :meth:`live_lines` is the
    view the production directory's ``lines()`` must equal.
    """

    __slots__ = ("n_clusters", "_entries", "invalidations_sent",
                 "replacement_hints", "writebacks")

    def __init__(self, n_clusters: int) -> None:
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        self.n_clusters = n_clusters
        self._entries: dict[int, DirEntry] = {}
        self.invalidations_sent = 0
        self.replacement_hints = 0
        self.writebacks = 0

    def entry(self, line: int) -> DirEntry:
        e = self._entries.get(line)
        if e is None:
            e = DirEntry()
            self._entries[line] = e
        return e

    def peek(self, line: int) -> DirEntry | None:
        return self._entries.get(line)

    def record_read_fill(self, line: int, cluster: int) -> None:
        e = self.entry(line)
        e.state = DIR_SHARED
        e.add_sharer(cluster)

    def record_exclusive(self, line: int, cluster: int) -> int:
        e = self.entry(line)
        others = e.sharers & ~(1 << cluster)
        n_inval = others.bit_count()
        self.invalidations_sent += n_inval
        e.state = DIR_EXCLUSIVE
        e.sharers = 1 << cluster
        return n_inval

    def replacement_hint(self, line: int, cluster: int) -> None:
        e = self._entries.get(line)
        if e is None:
            return
        e.remove_sharer(cluster)
        self.replacement_hints += 1
        if e.sharers == 0:
            e.state = NOT_CACHED

    def writeback(self, line: int, cluster: int) -> None:
        e = self._entries.get(line)
        if e is None:
            return
        if e.state == DIR_EXCLUSIVE and e.only_sharer_is(cluster):
            e.state = NOT_CACHED
            e.sharers = 0
            self.writebacks += 1

    def downgrade_owner(self, line: int, reader: int) -> None:
        e = self.entry(line)
        if e.state != DIR_EXCLUSIVE:
            raise ValueError(f"line {line:#x} not exclusive at directory")
        e.state = DIR_SHARED
        e.add_sharer(reader)

    def live_lines(self) -> list[int]:
        """Lines with at least one sharer bit."""
        return [line for line, e in self._entries.items() if e.sharers]


class RefDLSMemorySystem:
    """Plainly written oracle for the ``"dls"`` protocol backend.

    The reference twin of :class:`repro.memory.dls.DLSMemorySystem`: one
    fully associative :class:`~repro.memory.cache.Cache` slice per cluster
    (home lines only) driven through its methods, per-cluster miss
    counters kept as plain dicts, and the same
    observable contract — ``read`` / ``write`` outcomes and stalls,
    classification, prefetch-hit consumption, write-back counts, and
    victim choice.  The hypothesis suite drives both implementations
    with identical random access streams and requires them to agree
    step for step (``tests/test_memcore_properties.py``).
    """

    #: mirror of MissCause values, import-free (COLD/COHERENCE/CAPACITY)
    _CAUSES = ("cold", "coherence", "capacity")

    def __init__(self, config, allocator) -> None:
        self.config = config
        self.allocator = allocator
        self.local_clean = LatencyModel.LOCAL_CLEAN
        self.remote_clean = LatencyModel.REMOTE_CLEAN
        self.slices = [Cache(config.cluster_cache_lines)
                       for _ in range(config.n_clusters)]
        self.counters = [dict(reads=0, writes=0, read_misses=0,
                              write_misses=0, merges=0, merge_refetches=0,
                              prefetch_hits=0, cold=0, coherence=0,
                              capacity=0)
                         for _ in range(config.n_clusters)]
        self.writebacks = 0
        self._history: list[dict[int, str]] = [
            dict() for _ in range(config.n_clusters)]

    def cluster_of(self, processor: int) -> int:
        return processor // self.config.cluster_size

    def _install(self, cluster: int, line: int, state: int,
                 pending_until: int, fetcher: int) -> None:
        victim = self.slices[cluster].insert(line, state, pending_until,
                                             fetcher)
        if victim is not None:
            self._history[cluster][victim.line] = "capacity"
            if victim.state == EXCLUSIVE:
                self.writebacks += 1

    def read(self, processor: int, line: int, now: int,
             is_retry: bool = False) -> tuple[int, int]:
        """Same outcome tags as the production system (READ_* ints 0/1/2)."""
        cluster = self.cluster_of(processor)
        ctr = self.counters[cluster]
        if not is_retry:
            ctr["reads"] += 1
        home = self.allocator.home_of_line(line)
        history = self._history[cluster]
        if home == cluster:
            entry = self.slices[cluster].lookup(line)
            if entry is not None:
                if entry.pending_until > now:
                    ctr["merges"] += 1
                    return 1, entry.pending_until - now  # READ_MERGE
                if entry.fetcher != -1 and entry.fetcher != processor:
                    ctr["prefetch_hits"] += 1
                    entry.fetcher = -1
                return 0, 0  # READ_HIT
            if is_retry:
                ctr["merge_refetches"] += 1
            cause = history.get(line, "cold")
            latency = self.local_clean
            self._install(cluster, line, SHARED, now + latency, processor)
            ctr["read_misses"] += 1
            ctr[cause] += 1
            return 2, latency  # READ_MISS
        cause = history.get(line, "cold")
        history[line] = "coherence"
        entry = self.slices[home].lookup(line)
        if entry is not None:
            queue = max(entry.pending_until - now, 0)
            latency = self.remote_clean + queue
        else:
            latency = self.remote_clean + self.local_clean
            self._install(home, line, SHARED, now + self.local_clean,
                          processor)
        ctr["read_misses"] += 1
        ctr[cause] += 1
        return 2, latency  # READ_MISS

    def write(self, processor: int, line: int, now: int) -> None:
        cluster = self.cluster_of(processor)
        ctr = self.counters[cluster]
        ctr["writes"] += 1
        home = self.allocator.home_of_line(line)
        history = self._history[cluster]
        if home == cluster:
            entry = self.slices[cluster].lookup(line)
            if entry is not None:
                entry.state = EXCLUSIVE
                return
            cause = history.get(line, "cold")
            self._install(cluster, line, EXCLUSIVE,
                          now + self.local_clean, processor)
            ctr["write_misses"] += 1
            ctr[cause] += 1
            return
        cause = history.get(line, "cold")
        history[line] = "coherence"
        ctr["write_misses"] += 1
        ctr[cause] += 1
        entry = self.slices[home].lookup(line)
        if entry is not None:
            entry.state = EXCLUSIVE
            return
        self._install(home, line, EXCLUSIVE, now + self.local_clean,
                      processor)
