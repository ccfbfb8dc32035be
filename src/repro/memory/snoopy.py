"""Shared-main-memory clusters (extension E-X2, paper §2's second cluster
type).

The paper's §2 contrasts two clusterings: the **shared cache cluster** its
evaluation uses (processors behind one cache — :mod:`repro.memory.coherence`)
and the **shared main memory cluster**: *"individual processor caches
connected by a snoopy bus with the backing shared main memory"*.  The
differences the paper calls out, all modelled here:

* working sets are still duplicated per processor, *but* "the parts of the
  working set replaced by one processor may not have been replaced by other
  processors, providing cache to cache sharing opportunities" — a miss that
  snoops a copy in a cluster-mate's cache is served by a fast
  **cache-to-cache transfer** instead of a directory transaction;
* "destructive interference does not exist, since the caches are separate";
* the snoopy bus adds arbitration/queueing/electrical delay to every
  cluster-memory access (``snoop_penalty``).

Intra-cluster coherence is write-invalidate over the snoopy bus; inter-
cluster coherence uses the same full-bit-vector directory as the shared-
cache system (the directory tracks *clusters*; within a cluster any
processor's cached copy makes the cluster a sharer).  Each line has one
:class:`~repro.memory.directory.LineRecord`, as in the shared-cache system,
but its two history masks have a bit per *processor* cache while the
sharer mask stays per cluster.  Its ``home`` is bound only by a miss that
goes to the home node — a read miss no cluster-mate serves, or a write
miss — never by a cache-to-cache transfer or an upgrade, because the order
of first touches decides which cluster a page lands on.

The class exposes the same hot interface as
:class:`~repro.memory.coherence.CoherentMemorySystem` (``read``/``write``/
``aggregate_counters``/``counters``), so the engine and the study driver
accept either interchangeably.  It shares that system's steps
(:mod:`~repro.memory.coherence`): ``Cache.probe_read`` — a snoopy line
never carries a fetcher, since nobody fetches into somebody else's cache
— ``rec_at_miss``, ``_rec_home``, ``_install`` and ``_drop``.  Only its
``_retire`` differs: the directory hears of an eviction only if no
cluster-mate still holds the line.  ``line in cache`` is a snoop, and
each cluster's processor range is computed once (``_snoop`` walks the
bus on every miss).
"""

from __future__ import annotations

from ..core.config import MachineConfig
from .allocation import PageAllocator
from .cache import EXCLUSIVE, READ_MISS, SHARED
from .coherence import MemorySystem
from .directory import (DIR_EXCLUSIVE, Directory, LineRecord, miss_cause,
                        rec_at_miss)

__all__ = ["SnoopyClusterMemorySystem", "DEFAULT_SNOOP_PENALTY",
           "DEFAULT_C2C_LATENCY"]

#: extra cycles a snoopy bus adds to any miss that leaves the processor
#: cache (paper: "arbitration, queueing and electrical delays")
DEFAULT_SNOOP_PENALTY = 6

#: latency of an intra-cluster cache-to-cache transfer (bus + SRAM array);
#: far cheaper than the 30-cycle local-memory access, let alone remote.
DEFAULT_C2C_LATENCY = 10


class SnoopyClusterMemorySystem(MemorySystem):
    """Per-processor caches + intra-cluster snooping + inter-cluster
    directory.

    Parameters
    ----------
    config:
        Machine organisation.  ``cache_kb_per_processor`` sizes each
        *processor* cache (there is no shared cache in this organisation).
    allocator:
        Page-home policy, as for the shared-cache system.

    The bus costs are the attributes ``snoop_penalty`` and ``c2c_latency``
    (see the module docstring), set to the module defaults, which are
    the ones the C kernel prices with.
    """

    def __init__(self, config: MachineConfig,
                 allocator: PageAllocator | None = None) -> None:
        super().__init__(config, allocator, config.n_processors,
                         config.processor_cache_lines)
        self.directory = Directory(config.n_clusters)
        self.directory.records = self.records
        self.snoop_penalty = DEFAULT_SNOOP_PENALTY
        self.c2c_latency = DEFAULT_C2C_LATENCY
        self.c2c_transfers = 0
        # each cluster's processor ids, computed once — _snoop walks this
        # on every miss, and range objects are reusable
        self._procs = [config.processors_of(c)
                       for c in range(config.n_clusters)]

    # ------------------------------------------------------------------ hot
    def _snoop(self, line: int, cluster: int, exclude: int) -> int | None:
        """Find a cluster-mate (≠ exclude) holding ``line``; returns its id."""
        caches = self.caches
        for q in self._procs[cluster]:
            if q != exclude and line in caches[q]:
                return q
        return None

    def read(self, processor: int, line: int, now: int,
             is_retry: bool = False) -> tuple[int, int]:
        """Read with snooping: own-cache hit, cache-to-cache transfer, or
        directory transaction (+ bus penalty)."""
        cluster = self._cluster_of[processor]
        ctr = self.counters[cluster]
        if not is_retry:
            ctr.reads += 1
        hit = self.caches[processor].probe_read(line, processor, now, ctr)
        if hit is not None:
            return hit
        if is_retry:
            ctr.merge_refetches += 1
        rec = rec_at_miss(self.records, line)
        cause = miss_cause(rec, 1 << processor)
        # Snoop the cluster bus first: cache-to-cache sharing opportunity.
        holder = self._snoop(line, cluster, processor)
        if holder is not None:
            self.caches[holder].downgrade(line)  # intra-cluster downgrade
            latency = self.c2c_latency
            self.c2c_transfers += 1
            # directory already lists this cluster; no global transaction
            # and no page bound
        else:
            home = self._rec_home(rec, line)
            if rec.dir_state == DIR_EXCLUSIVE and rec.mask != 1 << cluster:
                owner = rec.mask.bit_length() - 1
                latency = self._price(cluster, home, owner, now)
                self._downgrade_cluster(owner, line)
                self.directory.downgrade_owner(rec, cluster)
            else:
                latency = self._price(cluster, home, None, now)
                self.directory.record_read_fill(rec, cluster)
            latency += self.snoop_penalty
        self._install(processor, line, SHARED, now + latency)
        ctr.read_misses += 1
        ctr.by_cause[cause] += 1
        return READ_MISS, latency

    def write(self, processor: int, line: int, now: int) -> None:
        """Write: invalidate every other copy (bus upstream + directory)."""
        cluster = self._cluster_of[processor]
        ctr = self.counters[cluster]
        ctr.writes += 1
        record = self.caches[processor].lookup(line)
        if record is not None and record.state == EXCLUSIVE:
            return
        rec = rec_at_miss(self.records, line)
        if record is not None:
            ctr.upgrade_misses += 1
        else:
            ctr.write_misses += 1
            ctr.by_cause[miss_cause(rec, 1 << processor)] += 1
        # invalidate cluster-mates (bus) and other clusters (directory)
        self._drop_cluster(cluster, processor, line, rec)
        bits = rec.mask & ~(1 << cluster)
        while bits:
            low = bits & -bits
            bits ^= low
            self._drop_cluster(low.bit_length() - 1, -1, line, rec)
        self.directory.record_exclusive(rec, cluster)
        if record is not None:
            record.state = EXCLUSIVE  # an upgrade binds no page
            return
        # priced clean whatever the directory said: the copies are gone
        latency = (self._price(cluster, self._rec_home(rec, line), None, now)
                   + self.snoop_penalty)
        self._install(processor, line, EXCLUSIVE, now + latency)

    # ------------------------------------------------------------- internals
    def _retire(self, ci: int, rec: LineRecord, line: int,
                state: int) -> None:
        """Processor ``ci`` evicted ``line``: the directory hears of it
        (hint or writeback) only if no cluster-mate still holds it."""
        cluster = self._cluster_of[ci]
        if self._snoop(line, cluster, ci) is None:
            super()._retire(cluster, rec, line, state)

    def _downgrade_cluster(self, cluster: int, line: int) -> None:
        for q in self._procs[cluster]:
            if line in self.caches[q]:
                self.caches[q].downgrade(line)

    def _drop_cluster(self, cluster: int, keeper: int, line: int,
                      rec: LineRecord) -> None:
        """Invalidate ``line`` in every cache of ``cluster`` but
        ``keeper``'s (``kernel.c``'s ``drop_cluster``)."""
        for q in self._procs[cluster]:
            if q != keeper:
                self._drop(q, line, rec)

    # ---------------------------------------------------------------- query
    def check_invariants(self) -> None:
        """Cross-check processor caches against the directory.

        * First, no set of any processor cache exceeds its ways or holds
          another set's line (:meth:`MemorySystem.check_invariants`).
        * A record is NOT_CACHED exactly when its sharer mask is empty, and
          EXCLUSIVE only with one sharer cluster, the owner
          (:meth:`Directory.check_invariants`).
        * A cluster holds at least one copy iff its sharer bit is set
          (hints fire only when the whole cluster drops the line).
        * At most one processor holds the line EXCLUSIVE, and none unless
          the directory says EXCLUSIVE.
        """
        super().check_invariants()
        self.directory.check_invariants()
        for line, rec in self.records.items():
            mask, state = rec.mask, rec.dir_state
            for cluster, procs in enumerate(self._procs):
                held = [self.caches[q].state_of(line) for q in procs
                        if line in self.caches[q]]
                if bool(held) != bool(mask >> cluster & 1):
                    raise AssertionError(
                        f"line {line:#x}: sharers {mask:#x}, but cluster "
                        f"{cluster} holds {len(held)} copies")
                if held.count(EXCLUSIVE) > (state == DIR_EXCLUSIVE):
                    raise AssertionError(
                        f"line {line:#x}: {held.count(EXCLUSIVE)} EXCLUSIVE "
                        f"copies under directory state {state}")
