"""The hop-based mesh miss-latency provider.

The memory systems (:class:`repro.memory.coherence.MemorySystem`) price a
miss with one ``miss_cycles(requester, home, dirty_owner, now)`` call:

* the default flat-table provider is the paper's
  :class:`~repro.core.config.LatencyModel` itself;
* :class:`MeshLatency` (``network.provider == "mesh"``) prices the same
  four transaction shapes over a real topology: per-hop wire + router
  cycles along the routed legs, directory occupancy at the home node,
  and (optionally) M/D/1 queueing delay from the
  :class:`~repro.network.contention.ContentionModel`.

Table-1 calibration
-------------------
The mesh provider is *calibrated to Table 1 by construction*.  The base
cost of a transaction is ``table_value - hop_cycles * expected_hops``,
where the expectation is taken over the participant the shape leaves
free once requester and home are fixed:

* the two-leg shapes (remote clean, local home with a dirty remote
  owner) have their whole route determined by the two endpoints, so the
  expectation is exact and their zero-load latency *is* the Table 1
  value for every pair of clusters;
* the three-leg dirty shape keeps the forwarded owner's geography: the
  ``home -> owner -> requester`` legs are priced by their actual hops,
  calibrated so the mean over uniformly distributed third-party owners
  equals Table 1 for every (requester, home) pair.

Pinning the fully-determined shapes matters because execution time is a
*max* over barrier-synchronised processors: a model that only matched
per-requester means would still run hub-heavy phases (coarse multigrid
levels, global reductions) at the speed of the farthest corner node and
drift several percent above the flat table at 64 clusters.  With this
calibration an unloaded mesh tracks flat-table execution times well
inside the contention sweep's 2% acceptance band, while hop counts and
link occupancy still vary per transaction — which is what the contention
model feeds on.

Transaction shapes (paper Table 1, §3.1):

==========================  =============================  ==============
shape                       legs routed                    Table 1 cycles
==========================  =============================  ==============
local clean                 none (stays at home = self)    30
local, dirty remote         req->owner, owner->req         100
remote clean                req->home, home->req           100
remote, dirty third party   req->home, home->owner,        150
                            owner->req
==========================  =============================  ==============

A line dirty in the *home's own* cache is served by home, i.e. priced as
remote-clean — the same equivalence
:class:`~repro.core.config.LatencyModel` applies.
"""

from __future__ import annotations

from ..core.config import MachineConfig
from ..core.metrics import NetworkStats
from .contention import ContentionModel
from .topology import make_topology

__all__ = ["MeshLatency"]


class MeshLatency:
    """Hop-based miss latency over a routed topology, Table-1 calibrated.

    One instance per memory system: it owns the run's contention state and
    :class:`~repro.core.metrics.NetworkStats`, so every simulation starts
    on a cold network.
    """

    def __init__(self, config: MachineConfig) -> None:
        net = config.network
        table = config.latency
        self.table = table
        self.hop_cycles = net.hop_cycles
        self.topology = make_topology(net.topology, config.n_clusters)
        self._stats = NetworkStats()
        self.contention = (ContentionModel(
            self.topology.n_links, config.n_clusters,
            link_service=net.hop_cycles,
            directory_service=net.directory_cycles,
            background_load=net.background_load,
            stats=self._stats) if net.contention else None)
        self._calibrate(config.n_clusters)

    # ------------------------------------------------------------ calibration
    def _calibrate(self, n: int) -> None:
        """Base costs making every shape's zero-load latency match Table 1.

        Requester and home are fixed when a miss is priced, so the two-leg
        round trips are pinned exactly; only the three-leg dirty shape has
        a free participant (the owner) and its base is the per-(r, h) mean
        ``E_o[hops(h,o) + hops(o,r)]`` over owners distinct from both
        (closed form from row sums of the symmetric hop matrix,
        brute-forced in tests/test_network.py).
        """
        topo = self.topology
        self._n = n
        self._rowsum = [sum(topo.hops(r, x) for x in range(n))
                        for r in range(n)]

    def _mean_forward_hops(self, requester: int, home: int) -> float:
        """``E_o[hops(home,o) + hops(o,requester)]`` over ``o`` not in
        ``{requester, home}`` (uniform)."""
        n = self._n
        if n <= 2:
            return 0.0  # the shape needs three distinct clusters
        rs = self._rowsum
        direct = self.topology.hops(requester, home)
        return (rs[home] + rs[requester] - 2.0 * direct) / (n - 2)

    def three_leg_base(self, requester: int, home: int) -> float:
        """Base cost of the dirty-third-party shape for one (requester,
        home) pair: Table 1 minus the hop cost of the mean route, so that
        the mean over owners lands on Table 1.  The one home of this
        float expression — the native driver tabulates it per pair."""
        return (self.table.remote_dirty_third_party
                - self.hop_cycles * (self.topology.hops(requester, home)
                                     + self._mean_forward_hops(requester,
                                                               home)))

    # ------------------------------------------------------------------- API
    def miss_cycles(self, requester: int, home: int,
                    dirty_owner: int | None, now: int = 0) -> int:
        if dirty_owner == requester and dirty_owner is not None:
            raise ValueError(
                "requesting cluster cannot be the dirty owner on a miss")
        table = self.table
        hop = self.hop_cycles
        route = self.topology.route
        if dirty_owner is None or dirty_owner == home:
            if requester == home:
                base = float(table.local_clean)
                links: tuple[int, ...] = ()
            else:
                links = route(requester, home) + route(home, requester)
                base = table.remote_clean - hop * len(links)
        elif requester == home:
            links = (route(requester, dirty_owner)
                     + route(dirty_owner, requester))
            base = table.local_dirty_remote - hop * len(links)
        else:
            links = (route(requester, home) + route(home, dirty_owner)
                     + route(dirty_owner, requester))
            base = self.three_leg_base(requester, home)
        hops = len(links)
        latency = base + self.hop_cycles * hops
        stats = self._stats
        stats.messages += 1
        stats.hops += hops
        cycles = round(latency)
        if self.contention is not None:
            delayed = round(latency + self.contention.transaction_delay(
                links, home, now))
            stats.queue_delay_cycles += delayed - cycles
            cycles = delayed
        return cycles if cycles >= 1 else 1

    def stats(self) -> NetworkStats:
        return self._stats
