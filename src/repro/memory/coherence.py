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

Hot-path layout
---------------
The two hot entry points, :meth:`CoherentMemorySystem.read` and
:meth:`CoherentMemorySystem.write`, take line numbers (the simulation engine
divides byte addresses by the line size once) and run against **flat
state**, allocating nothing per access:

* each cluster's cache is bound once as *kernel tuples*
  ``(slot_of, state, pending, fetcher, free)`` — one per set of
  :class:`~repro.memory.cache.Cache`, the set's index dict and free list
  beside the shared slab columns — so a hit is a dict probe plus two array
  indexings and a miss recycles the victim's slot in place.  The paper's
  fully associative cache is one set and binds its tuple directly; a
  set-associative cache selects the tuple with ``line % n_sets``, the one
  place an operation looks at the geometry;
* the directory is its packed-int table (``dict line -> (mask << 2) |
  state``), so directory transitions are single int ops and the sole-owner
  writeback test is one comparison;
* the four flat Table-1 miss latencies return **interned** ``(READ_MISS,
  latency)`` transition tuples instead of allocating a fresh pair per miss;
* ``hits`` and ``references`` are *derived* on
  :class:`~repro.core.metrics.MissCounters` (see there), so the hit path
  increments one counter, not three.

A hop-based provider (MeshLatency) is stateful — contention queues,
counters — so it keeps the ``miss_cycles`` call and per-miss tuple.

:class:`MemorySystem` holds what the three protocol back ends (this one,
:mod:`~repro.memory.snoopy`, :mod:`~repro.memory.dls`) share outside their
hot methods: construction, the processor → cluster mapping, the counters
and the cache-slot half of ``check_invariants``.
"""

from __future__ import annotations

from ..core.config import MachineConfig
from ..core.metrics import MissCause, MissCounters, NetworkStats
from ..network.latency import TableLatency, make_latency_provider
from .allocation import PageAllocator
from .cache import EXCLUSIVE, SHARED, Cache
from .directory import DIR_EXCLUSIVE, DIR_SHARED, NOT_CACHED, Directory

__all__ = ["READ_HIT", "READ_MERGE", "READ_MISS", "MemorySystem",
           "CoherentMemorySystem"]

#: read() outcome tags (plain ints for speed on the hot path)
READ_HIT = 0
READ_MERGE = 1
READ_MISS = 2

# Per-cluster line history for cold/coherence/capacity classification.  The
# history dict stores, for each line a cluster has ever lost, the MissCause a
# future miss on that line will carry: evictions write CAPACITY, invalidations
# write COHERENCE, and a line never seen classifies COLD via the dict-get
# default.  (Installs need no history write: a resident line cannot miss, and
# every way of losing a line — eviction or invalidation — records its cause.)
_COLD = MissCause.COLD
_CAPACITY = MissCause.CAPACITY
_COHERENCE = MissCause.COHERENCE

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
        self._flat = isinstance(self.latency, TableLatency)
        self.caches = [Cache(cache_lines, config.associativity)
                       for _ in range(n_caches)]
        self.counters = [MissCounters() for _ in range(config.n_clusters)]
        self._cluster_shift = config.cluster_shift
        # live views of allocator page bindings for the in-line home lookup
        # (first touch of a page still goes through the allocator)
        self._page_home = self.allocator._page_home
        self._lines_per_page = self.allocator._lines_per_page
        # The hot paths run on each cache's kernel tuples as plain
        # dict/array ops, with no method call and no per-line object.  One
        # fully associative set (the paper's model) is bound as the tuple
        # itself, so only n_sets != 1 pays the ``line % n_sets`` selection.
        self._n_sets = self.caches[0].n_sets
        self._ways = self.caches[0].ways
        self._kernels = [c.kernels() if self._n_sets != 1 else c.kernels()[0]
                         for c in self.caches]

    def cluster_of(self, processor: int) -> int:
        """Cluster id for a processor (shift when cluster size is a power of 2)."""
        if self._cluster_shift is not None:
            return processor >> self._cluster_shift
        return processor // self.config.cluster_size

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
        """Raise unless every cache's slot accounting balances, set by
        set (:meth:`Cache.check_slots`); back ends add their protocol's
        own cross-checks."""
        for index, cache in enumerate(self.caches):
            cache.check_slots(f"cache {index}")


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
        # Per-cluster line history for cold/coherence/capacity classification
        # (see the module-level comment above _COLD for the encoding).
        self._history: list[dict[int, MissCause]] = [dict() for _ in range(config.n_clusters)]
        # --- hot-path precomputation ----------------------------------
        # The flat Table-1 latencies are inlined on the miss path (the
        # dominant per-op cost of a simulation) and their (READ_MISS,
        # latency) transition tuples are interned up front.
        model = config.latency
        self._local_clean = model.local_clean
        self._remote_clean = model.remote_clean
        self._local_dirty_remote = model.local_dirty_remote
        self._remote_dirty_3p = model.remote_dirty_third_party
        self._t_local_clean = (READ_MISS, model.local_clean)
        self._t_remote_clean = (READ_MISS, model.remote_clean)
        self._t_local_dirty = (READ_MISS, model.local_dirty_remote)
        self._t_remote_dirty_3p = (READ_MISS, model.remote_dirty_third_party)
        # the directory's packed table, bound once for in-line transitions
        self._dtable = self.directory.packed

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

        The miss path inlines the classify / directory-transaction
        sequence: it runs once per miss — the dominant per-op cost of a
        whole simulation — and the Python frames it saves are worth the
        longer method body.  Installing the line and retiring its victim
        is :meth:`_install`, shared with :meth:`write`.
        """
        shift = self._cluster_shift
        cluster = (processor >> shift if shift is not None
                   else processor // self.config.cluster_size)
        ctr = self.counters[cluster]
        if not is_retry:
            ctr.reads += 1
        kern = self._kernels[cluster]
        if self._n_sets != 1:
            kern = kern[line % self._n_sets]
        slot_of = kern[0]
        slot = slot_of.get(line, -1)
        if slot >= 0:
            if self._ways is not None:
                # LRU touch: delete + reinsert keeps dict order = LRU
                del slot_of[line]
                slot_of[line] = slot
            pending_until = kern[2][slot]
            if pending_until > now:
                ctr.merges += 1
                return READ_MERGE, pending_until - now
            fetcher = kern[3][slot]
            if fetcher != -1 and fetcher != processor:
                ctr.prefetch_hits += 1
                kern[3][slot] = -1
            return _HIT
        if is_retry:
            # Line was invalidated while we were merged on its fill.
            ctr.merge_refetches += 1

        # ---- read miss: classify, directory transaction, SHARED install
        cause = self._history[cluster].get(line, _COLD)
        page_home = self._page_home.get(line // self._lines_per_page)
        home = (page_home if page_home is not None
                else self.allocator.home_of_line(line))
        dtable = self._dtable
        packed = dtable.get(line, 0)
        if packed & 3 == DIR_EXCLUSIVE:
            owner = packed.bit_length() - 3
            if self._flat:
                if owner == cluster:
                    raise ValueError(
                        "requesting cluster cannot be the dirty owner on a miss")
                if cluster == home:
                    result = self._t_local_dirty
                elif owner == home:
                    result = self._t_remote_clean
                else:
                    result = self._t_remote_dirty_3p
                latency = result[1]
            else:
                latency = self.latency.miss_cycles(cluster, home, owner, now)
                result = (READ_MISS, latency)
            # Owner keeps the data but downgrades; reader joins the sharers.
            ok = self._kernels[owner]
            if self._n_sets != 1:
                ok = ok[line % self._n_sets]
            ok[1][ok[0][line]] = SHARED
            dtable[line] = (packed & -4) | (4 << cluster) | DIR_SHARED
        else:
            if self._flat:
                result = (self._t_local_clean if cluster == home
                          else self._t_remote_clean)
                latency = result[1]
            else:
                latency = self.latency.miss_cycles(cluster, home, None, now)
                result = (READ_MISS, latency)
            dtable[line] = (packed & -4) | (4 << cluster) | DIR_SHARED
        self._install(cluster, kern, line, SHARED, now + latency, processor)
        ctr.read_misses += 1
        ctr.by_cause[cause] += 1
        return result

    def write(self, processor: int, line: int, now: int) -> None:
        """Process a write by ``processor`` to ``line`` at time ``now``.

        Writes never stall (store buffer + relaxed consistency); they update
        protocol state, classify the miss, and leave missing lines pending.
        Like :meth:`read`, the miss and upgrade paths are inlined.
        """
        shift = self._cluster_shift
        cluster = (processor >> shift if shift is not None
                   else processor // self.config.cluster_size)
        ctr = self.counters[cluster]
        ctr.writes += 1
        directory = self.directory
        dtable = self._dtable
        kern = self._kernels[cluster]
        if self._n_sets != 1:
            kern = kern[line % self._n_sets]
        slot_of = kern[0]
        slot = slot_of.get(line, -1)
        if slot >= 0:
            if self._ways is not None:
                del slot_of[line]
                slot_of[line] = slot
            state_col = kern[1]
            if state_col[slot] == EXCLUSIVE:
                return
            # UPGRADE: present but SHARED -> invalidate other sharers.
            ctr.upgrade_misses += 1
            others = (dtable.get(line, 0) >> 2) & ~(1 << cluster)
            if others:
                self._invalidate_bits(line, others)
                directory.invalidations_sent += others.bit_count()
            dtable[line] = (4 << cluster) | DIR_EXCLUSIVE
            state_col[slot] = EXCLUSIVE
            return

        # ---- WRITE miss: fetch exclusive; latency hidden, line pending.
        cause = self._history[cluster].get(line, _COLD)
        page_home = self._page_home.get(line // self._lines_per_page)
        home = (page_home if page_home is not None
                else self.allocator.home_of_line(line))
        packed = dtable.get(line, 0)
        if packed & 3 == DIR_EXCLUSIVE:
            owner = packed.bit_length() - 3
            if self._flat:
                if owner == cluster:
                    raise ValueError(
                        "requesting cluster cannot be the dirty owner on a miss")
                if cluster == home:
                    latency = self._local_dirty_remote
                elif owner == home:
                    latency = self._remote_clean
                else:
                    latency = self._remote_dirty_3p
            else:
                latency = self.latency.miss_cycles(cluster, home, owner, now)
        else:
            if self._flat:
                latency = (self._local_clean if cluster == home
                           else self._remote_clean)
            else:
                latency = self.latency.miss_cycles(cluster, home, None, now)
        others = (packed >> 2) & ~(1 << cluster)
        if others:
            self._invalidate_bits(line, others)
        directory.invalidations_sent += others.bit_count()
        dtable[line] = (4 << cluster) | DIR_EXCLUSIVE
        self._install(cluster, kern, line, EXCLUSIVE, now + latency, processor)
        ctr.write_misses += 1
        ctr.by_cause[cause] += 1

    # -------------------------------------------------- miss-path helpers
    def _install(self, cluster: int, kern: tuple, line: int, state: int,
                 pending_until: int, fetcher: int) -> None:
        """Install ``line`` in its set ``kern`` of ``cluster``'s cache,
        retiring any victim.

        An evicted victim's slot is recycled for the incoming line; the
        eviction writes CAPACITY into the cluster's history and notifies
        the directory (write-back for EXCLUSIVE, replacement hint for
        SHARED).
        """
        slot_of = kern[0]
        state_col = kern[1]
        cache = self.caches[cluster]
        ways = self._ways
        if ways is not None and len(slot_of) >= ways:
            vline = next(iter(slot_of))
            slot = slot_of.pop(vline)
            vstate = state_col[slot]
            cache.evictions += 1
        else:
            vline = None
            free = kern[4]
            slot = free.pop() if free else cache._grow()
        state_col[slot] = state
        kern[2][slot] = pending_until
        kern[3][slot] = fetcher
        cache.tag[slot] = line
        slot_of[line] = slot
        cache.inserts += 1
        if vline is None:
            return
        self._history[cluster][vline] = _CAPACITY
        dtable = self._dtable
        if vstate == EXCLUSIVE:
            # writeback: data returns home, line NOT_CACHED (pruned)
            if dtable.get(vline, 0) == (4 << cluster) | DIR_EXCLUSIVE:
                del dtable[vline]
                self.directory.writebacks += 1
        else:
            # replacement hint: clear the sharer bit so the directory never
            # sends a useless invalidation later; prune when the mask empties
            vpacked = dtable.get(vline)
            if vpacked is not None:
                vpacked &= ~(4 << cluster)
                self.directory.replacement_hints += 1
                if vpacked >> 2:
                    dtable[vline] = vpacked
                else:
                    del dtable[vline]

    def _invalidate_bits(self, line: int, bits: int) -> None:
        """Instantaneously invalidate the cached copies named by ``bits``.

        Pending lines are invalidated too (paper §3.1); a reader merged on
        such a line re-fetches when it retries.

        Iterates set bits via lowest-bit extraction (ascending cluster
        order, same as the old shift-scan) so a write to a line shared by
        few of many clusters doesn't walk every bit position.
        """
        history = self._history
        kernels = self._kernels
        n_sets = self._n_sets
        while bits:
            low = bits & -bits
            bits ^= low
            cluster = low.bit_length() - 1
            kern = kernels[cluster]
            if n_sets != 1:
                kern = kern[line % n_sets]
            slot = kern[0].pop(line, -1)
            if slot >= 0:
                kern[4].append(slot)
                history[cluster][line] = _COHERENCE

    # ---------------------------------------------------------------- query
    def check_invariants(self) -> None:
        """Cross-check cache and directory state; raises on inconsistency.

        Used by tests and (cheaply) by long-running debug builds:

        * every live directory entry has a non-empty sharer mask (pruning
          means NOT_CACHED entries simply do not exist);
        * a line EXCLUSIVE at the directory is EXCLUSIVE in exactly the
          owner's cache and nowhere else;
        * a line SHARED at the directory is SHARED in every cache whose bit
          is set (hints guarantee no stale bits);
        * a line without an entry is nowhere;
        * no set of any cache exceeds its ways, and slab slot accounting
          balances (:meth:`MemorySystem.check_invariants`).
        """
        directory = self.directory
        seen = set()
        for line in directory.lines():
            seen.add(line)
            state = directory.state_of(line)
            if state == NOT_CACHED or directory.sharer_mask(line) == 0:
                raise AssertionError(
                    f"line {line:#x} has a live entry with no sharers "
                    f"(pruning failed)")
            for cluster, cache in enumerate(self.caches):
                cstate = cache.state_of(line)
                if state == DIR_SHARED:
                    if directory.is_sharer(line, cluster) and cstate != SHARED:
                        raise AssertionError(
                            f"line {line:#x} SHARED at dir, cluster {cluster} "
                            f"bit set, cache state {cstate}")
                    if not directory.is_sharer(line, cluster) and cstate is not None:
                        raise AssertionError(
                            f"line {line:#x} cached at {cluster} without "
                            f"a sharer bit")
                else:  # DIR_EXCLUSIVE
                    owner = directory.owner_of(line)
                    if cluster == owner and cstate != EXCLUSIVE:
                        raise AssertionError(
                            f"line {line:#x} EXCL at dir, owner {cluster} "
                            f"cache state {cstate}")
                    if cluster != owner and cstate is not None:
                        raise AssertionError(
                            f"line {line:#x} EXCL owned by {owner} "
                            f"but cached at {cluster}")
        for cluster, cache in enumerate(self.caches):
            for line in cache.resident_lines():
                if line not in seen:
                    raise AssertionError(
                        f"line {line:#x} cached at {cluster} but pruned "
                        f"from the directory")
        super().check_invariants()
