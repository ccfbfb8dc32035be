"""Reference (object-per-line) memory-state models for property testing.

These are the pre-kernelization implementations of the cache and directory
state stores, retained verbatim in behaviour: one heap object per resident
line / per directory entry, with the same LRU discipline (dict insertion
order) and the same transition semantics as the flat-array versions in
:mod:`repro.memory.cache` and :mod:`repro.memory.directory`.

They exist so the hypothesis property suite (``tests/test_memcore_properties
.py``) can drive both implementations with identical random access streams
and require identical observable behaviour — victim choice, states, pending
times, counters.  They live beside the tests because nothing in ``src/``
imports them: they are a test oracle, not part of the simulator.

The one intended divergence: :class:`RefDirectory` keeps a (dead)
``NOT_CACHED`` entry for every line ever cached, while the production
directory prunes them.  The property suite checks that the production
table equals the reference's *live* entries exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.memory.cache import EXCLUSIVE, SHARED
from repro.memory.directory import (DIR_EXCLUSIVE, DIR_SHARED,
                                    NOT_CACHED)

__all__ = ["LineEntry", "RefEviction", "RefFullyAssociativeCache",
           "RefSetAssociativeCache", "DirEntry", "RefDirectory",
           "RefDLSMemorySystem"]


class LineEntry:
    """Mutable per-line cache metadata (reference implementation).

    ``fetcher`` records which processor's miss brought the line in; the
    protocol layer uses it to count *cluster prefetch hits*.  It is set to
    ``-1`` once counted.
    """

    __slots__ = ("state", "pending_until", "fetcher")

    def __init__(self, state: int, pending_until: int = 0,
                 fetcher: int = -1) -> None:
        self.state = state
        self.pending_until = pending_until
        self.fetcher = fetcher

    def is_pending(self, now: int) -> bool:
        return self.pending_until > now


class RefEviction(NamedTuple):
    line: int
    state: int


class RefFullyAssociativeCache:
    """Fully associative LRU cache over per-line objects (reference)."""

    __slots__ = ("capacity_lines", "_lines", "evictions", "inserts")

    def __init__(self, capacity_lines: int | None) -> None:
        if capacity_lines is not None and capacity_lines <= 0:
            raise ValueError(
                f"capacity_lines must be positive or None, got {capacity_lines}"
            )
        self.capacity_lines = capacity_lines
        self._lines: dict[int, LineEntry] = {}
        self.evictions = 0
        self.inserts = 0

    def lookup(self, line: int) -> LineEntry | None:
        entry = self._lines.get(line)
        if entry is not None and self.capacity_lines is not None:
            del self._lines[line]
            self._lines[line] = entry
        return entry

    def peek(self, line: int) -> LineEntry | None:
        return self._lines.get(line)

    def insert(self, line: int, state: int, pending_until: int = 0,
               fetcher: int = -1) -> RefEviction | None:
        if line in self._lines:
            raise ValueError(f"line {line:#x} already resident")
        victim: RefEviction | None = None
        if (self.capacity_lines is not None
                and len(self._lines) >= self.capacity_lines):
            victim_line = next(iter(self._lines))
            victim_entry = self._lines.pop(victim_line)
            victim = RefEviction(victim_line, victim_entry.state)
            self.evictions += 1
        self._lines[line] = LineEntry(state, pending_until, fetcher)
        self.inserts += 1
        return victim

    def invalidate(self, line: int) -> bool:
        return self._lines.pop(line, None) is not None

    def downgrade(self, line: int) -> None:
        entry = self._lines.get(line)
        if entry is None:
            raise KeyError(f"line {line:#x} not resident; cannot downgrade")
        entry.state = SHARED

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, line: int) -> bool:
        return line in self._lines

    @property
    def is_infinite(self) -> bool:
        return self.capacity_lines is None

    def resident_lines(self) -> list[int]:
        return list(self._lines)

    def state_of(self, line: int) -> int | None:
        entry = self._lines.get(line)
        return None if entry is None else entry.state

    def pending_until_of(self, line: int) -> int | None:
        entry = self._lines.get(line)
        return None if entry is None else entry.pending_until


class RefSetAssociativeCache:
    """Set-associative LRU cache over per-line objects (reference)."""

    __slots__ = ("capacity_lines", "associativity", "n_sets", "_sets",
                 "evictions", "inserts")

    def __init__(self, capacity_lines: int, associativity: int) -> None:
        if capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        if capacity_lines % associativity != 0:
            raise ValueError(
                f"capacity {capacity_lines} not divisible by "
                f"associativity {associativity}"
            )
        self.capacity_lines = capacity_lines
        self.associativity = associativity
        self.n_sets = capacity_lines // associativity
        self._sets: list[dict[int, LineEntry]] = [dict()
                                                  for _ in range(self.n_sets)]
        self.evictions = 0
        self.inserts = 0

    def _set_for(self, line: int) -> dict[int, LineEntry]:
        return self._sets[line % self.n_sets]

    def lookup(self, line: int) -> LineEntry | None:
        s = self._set_for(line)
        entry = s.get(line)
        if entry is not None:
            del s[line]
            s[line] = entry
        return entry

    def peek(self, line: int) -> LineEntry | None:
        return self._set_for(line).get(line)

    def insert(self, line: int, state: int, pending_until: int = 0,
               fetcher: int = -1) -> RefEviction | None:
        s = self._set_for(line)
        if line in s:
            raise ValueError(f"line {line:#x} already resident")
        victim: RefEviction | None = None
        if len(s) >= self.associativity:
            victim_line = next(iter(s))
            victim_entry = s.pop(victim_line)
            victim = RefEviction(victim_line, victim_entry.state)
            self.evictions += 1
        s[line] = LineEntry(state, pending_until, fetcher)
        self.inserts += 1
        return victim

    def invalidate(self, line: int) -> bool:
        return self._set_for(line).pop(line, None) is not None

    def downgrade(self, line: int) -> None:
        entry = self._set_for(line).get(line)
        if entry is None:
            raise KeyError(f"line {line:#x} not resident; cannot downgrade")
        entry.state = SHARED

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __contains__(self, line: int) -> bool:
        return line in self._set_for(line)

    @property
    def is_infinite(self) -> bool:
        return False

    def resident_lines(self) -> list[int]:
        out: list[int] = []
        for s in self._sets:
            out.extend(s)
        return out

    def state_of(self, line: int) -> int | None:
        entry = self._set_for(line).get(line)
        return None if entry is None else entry.state

    def pending_until_of(self, line: int) -> int | None:
        entry = self._set_for(line).get(line)
        return None if entry is None else entry.pending_until


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

    def is_sharer(self, cluster: int) -> bool:
        return bool(self.sharers >> cluster & 1)

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

    Unlike the production directory this keeps dead (NOT_CACHED, empty
    mask) entries forever — the unbounded-growth behaviour the packed
    directory's pruning fixes.  :meth:`live_lines` exposes the pruned view
    for cross-checking.
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

    def __len__(self) -> int:
        return len(self._entries)

    def lines(self) -> list[int]:
        return list(self._entries)

    def live_lines(self) -> list[int]:
        """Lines with at least one sharer bit — what pruning would keep."""
        return [line for line, e in self._entries.items() if e.sharers]


class RefDLSMemorySystem:
    """Object-per-line oracle for the ``"dls"`` protocol backend.

    The reference twin of :class:`repro.memory.dls.DLSMemorySystem`: one
    :class:`RefFullyAssociativeCache` slice per cluster (home lines
    only), per-cluster miss counters kept as plain dicts, and the same
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
        self.local_clean = config.latency.local_clean
        self.remote_clean = config.latency.remote_clean
        self.slices = [RefFullyAssociativeCache(config.cluster_cache_lines)
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
                if entry.is_pending(now):
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
