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
processor's cached copy makes the cluster a sharer).

The class exposes the same hot interface as
:class:`~repro.memory.coherence.CoherentMemorySystem` (``read``/``write``/
``aggregate_counters``/``counters``), so the engine and the study driver
accept either interchangeably.  Like the shared-cache system it reads
and writes the cache's line records in place on a hit, derives
``hits``/``references`` on :class:`~repro.core.metrics.MissCounters`
instead of incrementing them, and precomputes each cluster's processor
range once (``_snoop`` walks the bus on every miss).
"""

from __future__ import annotations

from ..core.config import MachineConfig
from ..core.metrics import MissCause
from .allocation import PageAllocator
from .cache import EXCLUSIVE, SHARED, Eviction
from .coherence import READ_HIT, READ_MERGE, READ_MISS, MemorySystem
from .directory import DIR_EXCLUSIVE, Directory

__all__ = ["SnoopyClusterMemorySystem", "DEFAULT_SNOOP_PENALTY",
           "DEFAULT_C2C_LATENCY"]

#: extra cycles a snoopy bus adds to any miss that leaves the processor
#: cache (paper: "arbitration, queueing and electrical delays")
DEFAULT_SNOOP_PENALTY = 6

#: latency of an intra-cluster cache-to-cache transfer (bus + SRAM array);
#: far cheaper than the 30-cycle local-memory access, let alone remote.
DEFAULT_C2C_LATENCY = 10

_RESIDENT = 0
_EVICTED = 1
_INVALIDATED = 2

#: preallocated hit result (see coherence._HIT)
_HIT = (READ_HIT, 0)


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
    snoop_penalty, c2c_latency:
        Bus cost knobs (see module docstring).
    """

    def __init__(self, config: MachineConfig,
                 allocator: PageAllocator | None = None,
                 snoop_penalty: int = DEFAULT_SNOOP_PENALTY,
                 c2c_latency: int = DEFAULT_C2C_LATENCY) -> None:
        super().__init__(config, allocator, config.n_processors,
                         config.processor_cache_lines)
        self.directory = Directory(config.n_clusters)
        self.snoop_penalty = snoop_penalty
        self.c2c_latency = c2c_latency
        self.c2c_transfers = 0
        self._history: list[dict[int, int]] = [dict()
                                               for _ in range(config.n_processors)]
        # each cluster's processor ids, computed once — _snoop walks this
        # on every miss, and range objects are reusable
        self._procs = [config.processors_of(c)
                       for c in range(config.n_clusters)]
        # every processor's sets, so a snoop's residency probes are plain
        # dict-membership tests
        self._sets = [c.sets for c in self.caches]

    # ------------------------------------------------------------------ hot
    def _snoop(self, line: int, cluster: int, exclude: int) -> int | None:
        """Find a cluster-mate (≠ exclude) holding ``line``; returns its id."""
        sets = self._sets
        index = line % self._n_sets
        for q in self._procs[cluster]:
            if q != exclude and line in sets[q][index]:
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
        record = self.caches[processor].lookup(line)
        if record is not None:
            pending_until = record.pending_until
            if pending_until > now:
                ctr.merges += 1
                return READ_MERGE, pending_until - now
            return _HIT
        if is_retry:
            ctr.merge_refetches += 1
        cause = self._classify(processor, line)
        # Snoop the cluster bus first: cache-to-cache sharing opportunity.
        holder = self._snoop(line, cluster, processor)
        if holder is not None:
            self.caches[holder].downgrade(line)  # intra-cluster downgrade
            latency = self.c2c_latency
            self.c2c_transfers += 1
            # directory already lists this cluster; no global transaction
        else:
            home = self.allocator.home_of_line(line)
            directory = self.directory
            if (directory.state_of(line) == DIR_EXCLUSIVE
                    and not directory.only_sharer_is(line, cluster)):
                owner = directory.owner_of(line)
                latency = self._price(cluster, home, owner, now)
                self._downgrade_cluster(owner, line)
                directory.downgrade_owner(line, cluster)
            else:
                latency = self._price(cluster, home, None, now)
                directory.record_read_fill(line, cluster)
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
        if record is not None:
            ctr.upgrade_misses += 1
        else:
            ctr.write_misses += 1
            ctr.by_cause[self._classify(processor, line)] += 1
        # invalidate cluster-mates (bus) and other clusters (directory)
        caches = self.caches
        for q in self._procs[cluster]:
            if q != processor and caches[q].invalidate(line):
                self._history[q][line] = _INVALIDATED
        self._invalidate_other_clusters(line, cluster)
        self.directory.record_exclusive(line, cluster)
        if record is not None:
            record.state = EXCLUSIVE
        else:
            home = self.allocator.home_of_line(line)
            latency = self._price(cluster, home, None, now) \
                + self.snoop_penalty
            self._install(processor, line, EXCLUSIVE, now + latency)

    # ------------------------------------------------------------- internals
    def _install(self, processor: int, line: int, state: int,
                 pending_until: int) -> None:
        victim = self.caches[processor].insert(line, state, pending_until)
        self._history[processor][line] = _RESIDENT
        if victim is not None:
            self._retire(processor, victim)

    def _retire(self, processor: int, victim: Eviction) -> None:
        """Eviction: hint/writeback only if no cluster-mate still holds it."""
        self._history[processor][victim.line] = _EVICTED
        cluster = self.cluster_of(processor)
        if self._snoop(victim.line, cluster, processor) is not None:
            return  # cluster still caches the line; sharer bit stays
        if victim.state == EXCLUSIVE:
            self.directory.writeback(victim.line, cluster)
        else:
            self.directory.replacement_hint(victim.line, cluster)

    def _downgrade_cluster(self, cluster: int, line: int) -> None:
        for q in self._procs[cluster]:
            if line in self.caches[q]:
                self.caches[q].downgrade(line)

    def _invalidate_other_clusters(self, line: int, keeper: int) -> None:
        bits = self.directory.sharer_mask(line) & ~(1 << keeper)
        while bits:
            low = bits & -bits
            bits ^= low
            cluster = low.bit_length() - 1
            for q in self._procs[cluster]:
                if self.caches[q].invalidate(line):
                    self._history[q][line] = _INVALIDATED

    def _classify(self, processor: int, line: int) -> MissCause:
        mark = self._history[processor].get(line)
        if mark is None:
            return MissCause.COLD
        if mark == _INVALIDATED:
            return MissCause.COHERENCE
        return MissCause.CAPACITY

    # ---------------------------------------------------------------- query
    def check_invariants(self) -> None:
        """Cross-check processor caches against the directory.

        * First, no set of any processor cache exceeds its ways or holds
          another set's line (:meth:`MemorySystem.check_invariants`).
        * A line EXCLUSIVE at the directory is cached only inside the owner
          cluster, and at most one processor holds it EXCLUSIVE; no copy of
          it exists in any other cluster.
        * A cluster without its sharer bit set caches the line nowhere.
        * A sharer cluster holds at least one copy (hints fire only when
          the whole cluster drops the line).
        """
        super().check_invariants()
        directory = self.directory
        for line in directory.lines():
            state = directory.state_of(line)
            for cluster in range(self.config.n_clusters):
                holders = [q for q in self._procs[cluster]
                           if self.caches[q].state_of(line) is not None]
                excl = [q for q in self._procs[cluster]
                        if self.caches[q].state_of(line) == EXCLUSIVE]
                if not directory.is_sharer(line, cluster):
                    if holders:
                        raise AssertionError(
                            f"line {line:#x}: cluster {cluster} caches it "
                            f"without a sharer bit (procs {holders})")
                    continue
                if not holders:
                    raise AssertionError(
                        f"line {line:#x}: sharer bit set for cluster "
                        f"{cluster} but no processor caches it")
                if state == DIR_EXCLUSIVE:
                    if cluster != directory.owner_of(line):
                        raise AssertionError(
                            f"line {line:#x}: cached outside owner cluster")
                    if len(excl) > 1:
                        raise AssertionError(
                            f"line {line:#x}: {len(excl)} EXCLUSIVE copies")
                elif excl:
                    raise AssertionError(
                        f"line {line:#x}: EXCLUSIVE copy under a SHARED "
                        f"directory state")
