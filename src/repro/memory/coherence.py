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
divides byte addresses by the line size once).  Each step is written once,
shared by the three back ends and named after its ``kernel.c`` twin:

* a **read** probes its cache with :meth:`Cache.probe_read
  <repro.memory.cache.Cache.probe_read>` (hit, merge or absent); a write
  probes with ``Cache.lookup`` and upgrades the record in place;
* a **miss** finds the line's :class:`~repro.memory.directory.LineRecord`
  (directory entry, why each cache last lost the line, home — ``kernel.c``'s
  ``Rec``) with :func:`~repro.memory.directory.rec_at_miss`, binds its home
  with :meth:`MemorySystem._rec_home`, is priced by ``price(requester,
  home, owner, now)`` — the latency provider's ``miss_cycles`` — and fills
  through :meth:`MemorySystem._install`, which loses any victim to
  capacity and retires it through the back end's ``_retire``;
* an **invalidation** loses each copy to coherence through
  :meth:`MemorySystem._drop`; only the five
  :class:`~repro.memory.directory.Directory` transitions write a record's
  directory entry;
* ``hits`` and ``references`` are *derived* on
  :class:`~repro.core.metrics.MissCounters`, so a hit increments one
  counter.

:class:`MemorySystem` holds what the three protocol back ends (this one,
:mod:`~repro.memory.snoopy`, :mod:`~repro.memory.dls`) share: those
steps, construction, the caches, the record dict, the processor →
cluster mapping, ``price``, the counters and the cache-geometry and home
half of ``check_invariants``.  Each back end keeps only its own
protocol's transitions.
"""

from __future__ import annotations

from ..core.config import LatencyModel, MachineConfig
from ..core.metrics import MissCounters, NetworkStats
from ..network.latency import MeshLatency
from .allocation import PageAllocator
from .cache import EXCLUSIVE, READ_HIT, READ_MERGE, READ_MISS, SHARED, Cache
from .directory import (DIR_EXCLUSIVE, Directory, LineRecord, miss_cause,
                        rec_at_miss)

__all__ = ["READ_HIT", "READ_MERGE", "READ_MISS", "MemorySystem",
           "CoherentMemorySystem"]


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
        #: the mesh latency provider, or ``None`` under the flat table
        self.mesh = (MeshLatency(config.n_clusters, config.network)
                     if config.network.provider == "mesh" else None)
        #: ``price(requester, home, owner, now)`` -> stall cycles of a miss
        self._price = (self.mesh or LatencyModel).miss_cycles
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
        return MissCounters.summed(self.counters)

    def network_stats(self) -> NetworkStats | None:
        """Interconnect counters (``None`` under the flat-table provider)."""
        return self.mesh.stats() if self.mesh is not None else None

    # ------------------------------------------------ the shared miss steps
    def _rec_home(self, rec: LineRecord, line: int) -> int:
        """``rec``'s home, bound now if no earlier miss has
        (``kernel.c``'s ``rec_home``).  A back end calls this exactly
        where its protocol's miss goes to the home node, because the
        order of first touches decides which cluster a page lands on."""
        if rec.home == -1:
            rec.home = self.allocator.home_of_line(line)
        return rec.home

    def _install(self, ci: int, line: int, state: int, pending_until: int,
                 fetcher: int = -1) -> None:
        """Install ``line`` in cache ``ci`` (``kernel.c``'s ``install``).
        A victim is lost to capacity in that cache's history and retired
        through :meth:`_retire`."""
        victim = self.caches[ci].insert(line, state, pending_until, fetcher)
        if victim is not None:
            rec = self.records[victim.line]
            bit = 1 << ci
            rec.lost_cap |= bit
            rec.lost_coh &= ~bit
            self._retire(ci, rec, victim.line, victim.state)

    def _retire(self, ci: int, rec: LineRecord, line: int,
                state: int) -> None:
        """Tell the directory cache ``ci`` evicted ``line`` (``kernel.c``'s
        ``retire``): a writeback for EXCLUSIVE, else a replacement hint, so
        the directory never sends a useless invalidation later."""
        if state == EXCLUSIVE:
            self.directory.writeback(rec, ci)
        else:
            self.directory.replacement_hint(rec, ci)

    def _drop(self, ci: int, line: int, rec: LineRecord) -> None:
        """Invalidate ``line`` in cache ``ci`` if it is resident, pending
        or not (paper §3.1), losing it to coherence in that cache's
        history (``kernel.c``'s ``drop``)."""
        if self.caches[ci].invalidate(line):
            bit = 1 << ci
            rec.lost_coh |= bit
            rec.lost_cap &= ~bit

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
        hit = self.caches[cluster].probe_read(line, processor, now, ctr)
        if hit is not None:
            return hit
        if is_retry:
            # Line was invalidated while we were merged on its fill.
            ctr.merge_refetches += 1

        # ---- read miss: classify, directory transaction, SHARED install
        rec = rec_at_miss(self.records, line)
        cause = miss_cause(rec, 1 << cluster)
        owner = (rec.mask.bit_length() - 1 if rec.dir_state == DIR_EXCLUSIVE
                 else None)
        latency = self._price(cluster, self._rec_home(rec, line), owner, now)
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
        else:
            # WRITE miss: fetch exclusive; latency hidden, line pending.
            rec = rec_at_miss(self.records, line)
            ctr.write_misses += 1
            ctr.by_cause[miss_cause(rec, 1 << cluster)] += 1
            owner = (rec.mask.bit_length() - 1
                     if rec.dir_state == DIR_EXCLUSIVE else None)
            latency = self._price(cluster, self._rec_home(rec, line), owner,
                                  now)
        bits = rec.mask & ~(1 << cluster)
        while bits:  # lowest set bit first: ascending cluster order
            low = bits & -bits
            bits ^= low
            self._drop(low.bit_length() - 1, line, rec)
        self.directory.record_exclusive(rec, cluster)
        if record is not None:
            record.state = EXCLUSIVE
            return
        self._install(cluster, line, EXCLUSIVE, now + latency, processor)

    # ---------------------------------------------------------------- query
    def check_invariants(self) -> None:
        """Cross-check cache and directory state; raises on inconsistency.

        Used by tests and (cheaply) by long-running debug builds:

        * first, no set of any cache exceeds its ways or holds another
          set's line (:meth:`MemorySystem.check_invariants`);
        * a record is NOT_CACHED exactly when its sharer mask is empty, and
          EXCLUSIVE only with one sharer, the owner
          (:meth:`Directory.check_invariants`);
        * every cache whose bit is set holds the line in the directory's
          state (hints guarantee no stale bits), and no other cache holds
          it — so a line not in the directory is nowhere.
        """
        super().check_invariants()
        self.directory.check_invariants()
        for line, rec in self.records.items():
            mask, state = rec.mask, rec.dir_state
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
