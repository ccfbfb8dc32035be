"""Directoryless shared-LLC coherence (protocol ``"dls"``).

A DLS-style organisation (Liu et al., arXiv 1206.4753): the machine keeps
one last-level-cache *slice* per cluster, and a line may be cached **only
in the slice of its home cluster**.  That single location is the
coherence point — there are no sharer bit-masks, no directory, and no
invalidations, because no line ever has two cached copies:

* an access whose home is the local cluster probes the local slice —
  hits cost the ordinary cache hit time, misses fill from the local
  memory (Table 1 ``local_clean``);
* an access whose home is remote is a network transaction to the home
  slice every time (Table 1 ``remote_clean``); if the home slice misses
  too, the home's memory fill (``local_clean``) is added and the line is
  installed in the home slice on the way through;
* writes never stall (store buffer + relaxed consistency, as in the
  directory protocol); a write marks the home-slice line dirty
  (EXCLUSIVE), remote writes are write-through to the home slice, and
  dirty evictions count as :attr:`DLSMemorySystem.writebacks`;
* destructive interference and classic coherence misses are gone — the
  protocol trades them for mandatory remote traffic: a cluster's first
  touch of a remote-homed line classifies COLD, every later one
  COHERENCE (steady-state communication), and home-slice evictions
  classify CAPACITY exactly like the shared-cache protocol.

Each line has the same :class:`~repro.memory.directory.LineRecord` as
under the directory protocol, with an empty sharer mask: its history bits
are per cluster — ``lost_cap`` set by a home-slice eviction, ``lost_coh``
by every remote access — and its ``home`` is bound at the line's first
access, which is always a miss.

The class exposes the same hot interface as
:class:`~repro.memory.coherence.CoherentMemorySystem` (``read`` /
``write`` / ``cluster_of`` / ``counters`` / ``aggregate_counters`` /
``network_stats`` / ``check_invariants``), so the engine, the stats
assembler, and the study driver accept it interchangeably; runs select
it through the protocol registry (``MachineConfig.protocol = "dls"``).
It shares the directory back end's steps (:mod:`~repro.memory.coherence`):
a local read probes the local slice with ``Cache.probe_read``, every
access finds the record with ``rec_at_miss`` and the home with
``_rec_home``, and a fill goes through ``_install``, whose ``_retire``
only counts a dirty victim's writeback.  The oracle it is pinned against is
``RefDLSMemorySystem`` in ``tests/refmodel.py``: the same protocol
written out plainly over the same :class:`~repro.memory.cache.Cache`.
"""

from __future__ import annotations

from ..core.config import MachineConfig
from .allocation import PageAllocator
from .cache import EXCLUSIVE, READ_MISS, SHARED
from .coherence import MemorySystem
from .directory import LineRecord, miss_cause, rec_at_miss

__all__ = ["DLSMemorySystem"]


class DLSMemorySystem(MemorySystem):
    """Directoryless shared last-level cache: one slice per cluster.

    Parameters
    ----------
    config:
        Machine organisation.  ``cache_kb_per_processor`` sizes each
        cluster's LLC slice exactly as it sizes the shared cluster cache
        of the directory protocol (per-processor share × cluster size).
    allocator:
        Page-home policy; the home cluster of a line decides the one
        slice that may cache it.
    """

    def __init__(self, config: MachineConfig,
                 allocator: PageAllocator | None = None) -> None:
        super().__init__(config, allocator, config.n_clusters,
                         config.cluster_cache_lines)
        #: dirty home-slice evictions (the protocol's only write-back
        #: traffic; there is no directory to count them)
        self.writebacks = 0

    # ------------------------------------------------------------------ hot
    def read(self, processor: int, line: int, now: int,
             is_retry: bool = False) -> tuple[int, int]:
        """Process a read by ``processor`` to ``line`` at time ``now``.

        Local-home reads behave like the shared-cache protocol's hit /
        merge / miss triple against the local slice.  Remote-home reads
        are always a miss-priced transaction to the home slice; they
        never merge — a request arriving while the home fill is in
        flight queues behind it (the wait is folded into the returned
        stall), so the engine's retry machinery is local-only.
        """
        cluster = self._cluster_of[processor]
        ctr = self.counters[cluster]
        if not is_retry:
            ctr.reads += 1
        # every access needs the home; a line's first access is its first
        # miss, which makes its record and binds the home
        rec = rec_at_miss(self.records, line)
        home = self._rec_home(rec, line)
        # a line lives only in its home slice, so that is the one probed
        cache = self.caches[home]

        if home == cluster:
            # ---- local slice: hit / merge / local fill
            hit = cache.probe_read(line, processor, now, ctr)
            if hit is not None:
                return hit
            if is_retry:
                # pending line was evicted before the merged reader
                # retried; it pays a fresh (capacity) miss
                ctr.merge_refetches += 1
            cause = miss_cause(rec, 1 << cluster)
            latency = self._price(cluster, home, None, now)
            self._install(cluster, line, SHARED, now + latency, processor)
            ctr.read_misses += 1
            ctr.by_cause[cause] += 1
            return READ_MISS, latency

        # ---- remote home: network transaction to the home slice, plus
        # whatever the request waits for there
        cause = miss_cause(rec, 1 << cluster)
        rec.lost_coh |= 1 << cluster
        record = cache.lookup(line)
        if record is not None:
            # home slice serves the line (queued behind a fill in flight)
            wait = max(record.pending_until - now, 0)
        else:
            # home slice misses too: memory fill at home, then forward;
            # the line installs in the home slice on the way through
            wait = self._price(home, home, None, now)
            self._install(home, line, SHARED, now + wait, processor)
        ctr.read_misses += 1
        ctr.by_cause[cause] += 1
        return READ_MISS, self._price(cluster, home, None, now) + wait

    def write(self, processor: int, line: int, now: int) -> None:
        """Process a write by ``processor`` to ``line`` at time ``now``.

        Writes never stall.  A local-home write dirties (or
        write-allocates) the local slice line; a remote-home write is a
        write-through transaction to the home slice, counted as a write
        miss because it leaves the cluster.  With a single cached copy
        there is nothing to invalidate, so there are no upgrade misses.
        """
        cluster = self._cluster_of[processor]
        ctr = self.counters[cluster]
        ctr.writes += 1
        rec = rec_at_miss(self.records, line)
        home = self._rec_home(rec, line)
        record = self.caches[home].lookup(line)
        remote = home != cluster
        if remote or record is None:
            # a miss: the write leaves the cluster, or allocates locally
            ctr.write_misses += 1
            ctr.by_cause[miss_cause(rec, 1 << cluster)] += 1
            if remote:
                rec.lost_coh |= 1 << cluster
        if record is not None:
            record.state = EXCLUSIVE
            return
        # write-allocate at the home slice (memory fill at home)
        fill = self._price(home, home, None, now)
        self._install(home, line, EXCLUSIVE, now + fill, processor)

    # ------------------------------------------------------------- internals
    def _retire(self, ci: int, rec: LineRecord, line: int,
                state: int) -> None:
        """Slices only ever hold lines homed at their cluster, so there is
        no directory to tell: a dirty victim counts a write-back."""
        if state == EXCLUSIVE:
            self.writebacks += 1

    # ---------------------------------------------------------------- query
    def check_invariants(self) -> None:
        """Cross-check slice contents; raises on inconsistency.

        * first, no set of any slice exceeds its ways or holds another
          set's line (:meth:`MemorySystem.check_invariants`);
        * every resident line lives in the slice of its record's home
          cluster (the protocol's defining invariant — a violation means
          two copies could exist).
        """
        super().check_invariants()
        for cluster, cache in enumerate(self.caches):
            for line in cache.resident_lines():
                home = self.records[line].home
                if home != cluster:
                    raise AssertionError(
                        f"line {line:#x} homed at {home} is cached in "
                        f"slice {cluster}")
