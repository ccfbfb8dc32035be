"""Directory-based invalidation coherence over shared-cache clusters.

This is the protocol of the paper's simulated architecture (§3.1, Figure 1):
nodes of processors clustered around one shared cache, distributed memory,
full-bit-vector directories with replacement hints, invalidation-based
coherence with cache states INVALID / SHARED / EXCLUSIVE and directory
states NOT_CACHED / SHARED / EXCLUSIVE.

Semantics implemented verbatim from the paper:

* READ misses fetch the line SHARED and are the only misses that stall the
  processor; WRITE and UPGRADE miss latencies are assumed hidden by store
  buffers and relaxed consistency, but their fills still leave the line
  *pending* in the cache.
* A READ to a pending line is a **MERGE MISS**: the reader blocks until the
  outstanding fill returns.  If the line is invalidated while pending, the
  reader must fetch it again (a *merge refetch*).
* Invalidations are instantaneous and may invalidate pending lines.
* SHARED evictions send replacement hints; EXCLUSIVE evictions write back.

The protocol operates at *cluster* granularity: all processors behind one
shared cache are a single coherence participant, which is exactly the
mechanism by which clustering obviates communication.

Every reference through ``Cache``, misses through the API
---------------------------------------------------------
The two hot entry points, :meth:`CoherentMemorySystem.read` and
:meth:`CoherentMemorySystem.write`, take line numbers (the simulation engine
divides byte addresses by the line size once).  Each step has one
implementation, the one ``kernel.c`` mirrors:

* **every reference** probes its cluster's cache through
  :meth:`Cache.lookup <repro.memory.cache.Cache.lookup>`, which picks the
  set and refreshes LRU order; a hit then reads the
  :class:`~repro.memory.cache.Line` record it returns and writes its
  ``fetcher`` or ``state`` in place, and allocates nothing;
* a **miss, upgrade or eviction** goes through :meth:`Cache.insert` /
  ``invalidate`` / ``downgrade`` for the cache, the five
  :class:`~repro.memory.directory.Directory` transitions for the line's
  directory entry, and ``price(requester, home, owner, now)`` — the latency
  provider's ``miss_cycles`` (Table 1, or the stateful mesh) — for the
  stall.  A miss probes the memory system's record dict once: the line's
  :class:`~repro.memory.directory.LineRecord` holds its directory entry,
  why each cluster last lost it and its home, as ``kernel.c``'s ``Rec``
  does.  The back end writes the two history masks itself and never the
  entry;
* ``hits`` and ``references`` are *derived* on
  :class:`~repro.core.metrics.MissCounters` (see there), so the hit path
  increments one counter, not three.

:class:`MemorySystem` holds what the three protocol back ends (this one,
:mod:`~repro.memory.snoopy`, :mod:`~repro.memory.dls`) share outside their
hot methods: construction, the caches, the record dict, the processor →
cluster mapping, ``price``, the counters and the cache-geometry and home
half of ``check_invariants``.
"""

from __future__ import annotations

from ..core.config import MachineConfig
from ..core.metrics import MissCounters, NetworkStats
from ..network.latency import make_latency_provider
from .allocation import PageAllocator
from .cache import EXCLUSIVE, SHARED, Cache
from .directory import (DIR_EXCLUSIVE, NOT_CACHED, Directory, LineRecord,
                        miss_cause, new_record)

__all__ = ["READ_HIT", "READ_MERGE", "READ_MISS", "MemorySystem",
           "CoherentMemorySystem"]

#: read() outcome tags (plain ints for speed on the hot path)
READ_HIT = 0
READ_MERGE = 1
READ_MISS = 2

#: preallocated hit result — read() returns this once per hit, the single
#: most common outcome of a simulation, and callers only ever unpack it
_HIT = (READ_HIT, 0)


class MemorySystem:
    """What every protocol back end is built from and answers.

    ``cache_lines`` is the capacity of each of the ``n_caches`` caches (one
    per cluster, or per processor under snoopy); ``allocator`` is the
    page-home policy — a fresh first-touch round-robin allocator is built
    if not supplied (applications that place data pass their own).
    """

    def __init__(self, config: MachineConfig, allocator: PageAllocator | None,
                 n_caches: int, cache_lines: int | None) -> None:
        self.config = config
        self.allocator = allocator if allocator is not None else PageAllocator(
            config.n_clusters, config.page_size, config.line_size)
        if self.allocator.n_clusters != config.n_clusters:
            raise ValueError(
                f"allocator built for {self.allocator.n_clusters} clusters, "
                f"machine has {config.n_clusters}")
        # miss pricing goes through a pluggable provider; the default
        # flat-table provider is bit-identical to config.latency
        self.latency = make_latency_provider(config)
        #: ``price(requester, home, owner, now)`` -> stall cycles of a miss
        self._price = self.latency.miss_cycles
        self.caches = [Cache(cache_lines, config.associativity)
                       for _ in range(n_caches)]
        self.counters = [MissCounters() for _ in range(config.n_clusters)]
        self._cluster_of = [p // config.cluster_size
                            for p in range(config.n_processors)]
        #: line -> LineRecord, one per line ever missed on (directory.py);
        #: a back end with a directory hands this same dict to it
        self.records: dict[int, LineRecord] = {}

    def cluster_of(self, processor: int) -> int:
        """Cluster id for a processor."""
        return self._cluster_of[processor]

    def aggregate_counters(self) -> MissCounters:
        """Miss counters summed over all clusters."""
        total = MissCounters()
        for ctr in self.counters:
            ctr.merged_into(total)
        return total

    def network_stats(self) -> NetworkStats | None:
        """Interconnect counters (``None`` under the flat-table provider)."""
        return self.latency.stats()

    def check_invariants(self) -> None:
        """Raise unless every set of every cache holds at most ``ways``
        lines, all of them its own (:meth:`Cache.check_sets`), and every
        line record has at most one loss per cache (the latest) and a
        home, if bound, that is its page's home at the allocator; back
        ends add their protocol's own cross-checks after this one."""
        for index, cache in enumerate(self.caches):
            cache.check_sets(f"cache {index}")
        page_homes = self.allocator.page_homes
        lines_per_page = self.allocator.page_size // self.allocator.line_size
        for line, record in self.records.items():
            if record.lost_coh & record.lost_cap:
                raise AssertionError(
                    f"line {line:#x} lost to coherence and to capacity at "
                    f"once, caches {record.lost_coh & record.lost_cap:#x}")
            page_home = page_homes.get(line // lines_per_page)
            if record.home != -1 and record.home != page_home:
                raise AssertionError(
                    f"line {line:#x} records home {record.home}, its page "
                    f"is homed at {page_home}")


class CoherentMemorySystem(MemorySystem):
    """One coherent memory system: cluster caches + directory + allocator.

    Parameters
    ----------
    config:
        Machine organisation (cluster geometry, cache sizing, latencies).
    allocator:
        Page-home policy (see :class:`MemorySystem`).
    """

    def __init__(self, config: MachineConfig,
                 allocator: PageAllocator | None = None) -> None:
        super().__init__(config, allocator, config.n_clusters,
                         config.cluster_cache_lines)
        self.directory = Directory(config.n_clusters)
        self.directory.records = self.records

    # ------------------------------------------------------------------ hot
    def read(self, processor: int, line: int, now: int,
             is_retry: bool = False) -> tuple[int, int]:
        """Process a read by ``processor`` to ``line`` at time ``now``.

        Returns ``(outcome, stall_cycles)`` where outcome is one of
        ``READ_HIT`` (stall 0), ``READ_MERGE`` (stall until the outstanding
        fill returns; the caller must *retry* the read at ``now + stall``
        with ``is_retry=True``), or ``READ_MISS`` (stall = Table-1 latency;
        the line is installed pending).

        ``is_retry`` suppresses double-counting of the reference when the
        engine re-issues a merged read.
        """
        cluster = self._cluster_of[processor]
        ctr = self.counters[cluster]
        if not is_retry:
            ctr.reads += 1
        record = self.caches[cluster].lookup(line)
        if record is not None:
            pending_until = record.pending_until
            if pending_until > now:
                ctr.merges += 1
                return READ_MERGE, pending_until - now
            fetcher = record.fetcher
            if fetcher != -1 and fetcher != processor:
                ctr.prefetch_hits += 1
                record.fetcher = -1
            return _HIT
        if is_retry:
            # Line was invalidated while we were merged on its fill.
            ctr.merge_refetches += 1

        # ---- read miss: classify, directory transaction, SHARED install;
        # entry, cause and home come from one probe of the record dict
        records = self.records
        rec = records.get(line) or new_record(
            records, line, self.allocator.home_of_line(line))
        cause = miss_cause(rec, 1 << cluster)
        owner = (rec.mask.bit_length() - 1 if rec.dir_state == DIR_EXCLUSIVE
                 else None)
        latency = self._price(cluster, rec.home, owner, now)
        if owner is None:
            self.directory.record_read_fill(rec, cluster)
        else:
            # Owner keeps the data but downgrades; reader joins the sharers.
            self.caches[owner].downgrade(line)
            self.directory.downgrade_owner(rec, cluster)
        self._install(cluster, line, SHARED, now + latency, processor)
        ctr.read_misses += 1
        ctr.by_cause[cause] += 1
        return READ_MISS, latency

    def write(self, processor: int, line: int, now: int) -> None:
        """Process a write by ``processor`` to ``line`` at time ``now``.

        Writes never stall (store buffer + relaxed consistency); they update
        protocol state, classify the miss, and leave missing lines pending.
        """
        cluster = self._cluster_of[processor]
        ctr = self.counters[cluster]
        ctr.writes += 1
        record = self.caches[cluster].lookup(line)
        if record is not None:
            if record.state == EXCLUSIVE:
                return
            # UPGRADE: present but SHARED -> invalidate other sharers.
            ctr.upgrade_misses += 1
            rec = self.records[line]
            others = rec.mask & ~(1 << cluster)
            if others:
                self._invalidate_bits(line, rec, others)
            self.directory.record_exclusive(rec, cluster)
            record.state = EXCLUSIVE
            return

        # ---- WRITE miss: fetch exclusive; latency hidden, line pending.
        records = self.records
        rec = records.get(line) or new_record(
            records, line, self.allocator.home_of_line(line))
        cause = miss_cause(rec, 1 << cluster)
        owner = (rec.mask.bit_length() - 1 if rec.dir_state == DIR_EXCLUSIVE
                 else None)
        latency = self._price(cluster, rec.home, owner, now)
        others = rec.mask & ~(1 << cluster)
        if others:
            self._invalidate_bits(line, rec, others)
        self.directory.record_exclusive(rec, cluster)
        self._install(cluster, line, EXCLUSIVE, now + latency, processor)
        ctr.write_misses += 1
        ctr.by_cause[cause] += 1

    # -------------------------------------------------- miss-path helpers
    def _install(self, cluster: int, line: int, state: int,
                 pending_until: int, fetcher: int) -> None:
        """Install ``line`` in ``cluster``'s cache, retiring any victim.

        The eviction marks the victim lost to capacity in the cluster's
        history and notifies the directory: a write-back for EXCLUSIVE,
        and for SHARED a replacement hint, so the directory never sends a
        useless invalidation later.
        """
        victim = self.caches[cluster].insert(line, state, pending_until,
                                             fetcher)
        if victim is None:
            return
        rec = self.records[victim.line]
        bit = 1 << cluster
        rec.lost_cap |= bit
        rec.lost_coh &= ~bit
        if victim.state == EXCLUSIVE:
            self.directory.writeback(rec, cluster)
        else:
            self.directory.replacement_hint(rec, cluster)

    def _invalidate_bits(self, line: int, rec: LineRecord, bits: int) -> None:
        """Instantaneously invalidate the cached copies named by ``bits``.

        Pending lines are invalidated too (paper §3.1); a reader merged on
        such a line re-fetches when it retries.

        Iterates set bits via lowest-bit extraction (ascending cluster
        order, same as the old shift-scan) so a write to a line shared by
        few of many clusters doesn't walk every bit position.
        """
        while bits:
            low = bits & -bits
            bits ^= low
            if self.caches[low.bit_length() - 1].invalidate(line):
                rec.lost_coh |= low
                rec.lost_cap &= ~low

    # ---------------------------------------------------------------- query
    def check_invariants(self) -> None:
        """Cross-check cache and directory state; raises on inconsistency.

        Used by tests and (cheaply) by long-running debug builds:

        * first, no set of any cache exceeds its ways or holds another
          set's line (:meth:`MemorySystem.check_invariants`);
        * a record is NOT_CACHED exactly when its sharer mask is empty, and
          EXCLUSIVE only with one sharer, the owner;
        * every cache whose bit is set holds the line in the directory's
          state (hints guarantee no stale bits), and no other cache holds
          it — so a line not in the directory is nowhere.
        """
        super().check_invariants()
        for line, rec in self.records.items():
            mask, state = rec.mask, rec.dir_state
            if ((state == NOT_CACHED) != (mask == 0) or state ==
                    DIR_EXCLUSIVE and mask & (mask - 1)):
                raise AssertionError(f"line {line:#x} is {state} at the "
                                     f"directory with sharers {mask:#x}")
            held = EXCLUSIVE if state == DIR_EXCLUSIVE else SHARED
            for cluster, cache in enumerate(self.caches):
                cstate = cache.state_of(line)
                if cstate != (held if mask >> cluster & 1 else None):
                    raise AssertionError(
                        f"line {line:#x} is {state} at the directory with "
                        f"sharers {mask:#x}, cluster {cluster} holds it "
                        f"in state {cstate}")
        for cluster, cache in enumerate(self.caches):
            for line in cache.resident_lines():
                if line not in self.records:
                    raise AssertionError(
                        f"line {line:#x} cached at {cluster} with no record")
