"""Machine configuration: cluster geometry, cache sizing, and the paper's
Table 1 latency model.

The paper's fixed experimental frame (§3.1):

* 64 processors total, clustered 1 / 2 / 4 / 8 per cluster (we also allow a
  64-way "one big cluster" used for the ``inf`` bar of Figure 3);
* one shared, fully associative, LRU cluster cache per cluster, 64-byte
  lines, sized *per processor* (so an 8-way cluster with 4 KB/processor has
  one 32 KB shared cache);
* distributed memory with full-bit-vector directories and the latencies of
  Table 1.

Everything the rest of the library needs to know about the machine lives in
:class:`MachineConfig`; experiments construct variants with
:meth:`MachineConfig.with_clusters` / :meth:`with_cache_kb`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

__all__ = ["DEFAULT_LINE_SIZE", "DEFAULT_PAGE_SIZE", "LatencyModel",
           "MachineConfig", "NetworkConfig", "NETWORK_PROVIDERS",
           "PAPER_CLUSTER_SIZES",
           "PAPER_CACHE_SIZES_KB", "PAPER_NETWORK_LOADS", "PROTOCOLS"]

#: Cache line size used throughout the paper's experiments (bytes).
DEFAULT_LINE_SIZE = 64

#: Page size used for first-touch round-robin allocation (bytes).  The paper
#: does not state one; 4 KB is the canonical choice for DASH-era machines.
DEFAULT_PAGE_SIZE = 4096

#: Cluster sizes swept throughout the paper's evaluation.
PAPER_CLUSTER_SIZES = (1, 2, 4, 8)

#: Finite per-processor cache sizes of Figures 4-8, in KB (None = infinite).
PAPER_CACHE_SIZES_KB = (4, 16, 32, None)

#: Background network loads swept by the contention-sensitivity study
#: (extension: the paper models no contention, i.e. load 0 only).
PAPER_NETWORK_LOADS = (0.0, 0.3, 0.6, 0.8)


class LatencyModel:
    """Memory-operation latencies in processor cycles (paper Table 1).

    ================================================================  ======
    Memory operation                                                  Cycles
    ================================================================  ======
    Hit in cache (1 processor per cluster)                                 1
    Hit in cache (2 processors per cluster)                                2
    Hit in cache (4 and 8 processors per cluster)                          3
    Miss to local home, satisfied by home (dir SHARED/NOT_CACHED)         30
    Miss to local home, satisfied by remote cluster (dir EXCL)           100
    Miss to remote home, satisfied by home (dir NOT_CACHED/SHARED)       100
    Miss to remote home, satisfied by third-party cluster (dir EXCL)     150
    ================================================================  ======

    The table is fixed, as in the paper: these are class constants, and
    :meth:`miss_cycles` is the flat-table provider itself.  The
    event-driven engine simulates with single-cycle hits (as the paper's
    Tango-lite runs did); the cluster-size-dependent hit time enters only
    through the §6 shared-cache cost estimator.
    """

    LOCAL_CLEAN = 30
    LOCAL_DIRTY_REMOTE = 100
    REMOTE_CLEAN = 100
    REMOTE_DIRTY_THIRD_PARTY = 150

    @staticmethod
    def hit_cycles(cluster_size: int) -> int:
        """Shared-cache hit time for a given cluster size (Table 1 rows 1-3).

        Cluster sizes between and beyond the tabulated 1, 2, 4 and 8 (e.g.
        the 64-way 'inf' configuration) take the row of the largest
        tabulated size not exceeding them.
        """
        if cluster_size <= 0:
            raise ValueError("cluster_size must be positive")
        return 1 if cluster_size < 2 else 2 if cluster_size < 4 else 3

    @staticmethod
    def miss_cycles(requester: int, home: int, dirty_owner: int | None,
                    now: int) -> int:
        """Latency of a miss serviced by the directory protocol.

        Parameters
        ----------
        requester:
            Cluster issuing the miss.
        home:
            Home cluster of the line.
        dirty_owner:
            Cluster holding the line EXCLUSIVE, or ``None`` when the
            directory can supply the data itself (NOT_CACHED / SHARED).
        now:
            Issue time; ignored (a flat table has no state).  Taking it
            makes this rule itself the flat latency provider's
            ``miss_cycles``, with no wrapping frame per miss.
        """
        if dirty_owner is None:
            return (LatencyModel.LOCAL_CLEAN if requester == home
                    else LatencyModel.REMOTE_CLEAN)
        if dirty_owner == requester:
            raise ValueError("requesting cluster cannot be the dirty owner on a miss")
        if requester == home:
            # 2 hops: requester(=home) -> owner -> requester.
            return LatencyModel.LOCAL_DIRTY_REMOTE
        if dirty_owner == home:
            # Data dirty in the home cluster's own cache: satisfied by home.
            return LatencyModel.REMOTE_CLEAN
        return LatencyModel.REMOTE_DIRTY_THIRD_PARTY


#: recognised coherence protocols.  The names are validated here (the
#: config layer must stay import-free of :mod:`repro.memory`); the
#: factories that realise them live in the ``repro.memory`` protocol
#: registry, which is required to cover exactly this tuple.
#:
#: * ``"directory"`` — the paper's full-bit-vector directory over shared
#:   cluster caches (§3.1; the default, bit-identical to history);
#: * ``"snoopy"`` — per-processor caches on an intra-cluster snoopy bus
#:   (paper §2's second cluster type, extension E-X2);
#: * ``"dls"`` — directoryless shared last-level cache: the home LLC
#:   slice is the coherence point, no sharer bit-masks (Liu et al.,
#:   arXiv 1206.4753).
PROTOCOLS = ("directory", "snoopy", "dls")

#: recognised interconnect latency providers
NETWORK_PROVIDERS = ("table", "mesh")


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect model selection and its cost knobs.

    The default (``provider="table"``) charges every miss the flat Table 1
    latency — the paper's §3.1 methodology, bit-identical to the historical
    behaviour.  ``provider="mesh"`` replaces the flat table with a
    hop-based model over a near-square 2D mesh of cluster nodes: a fixed
    cost per hop (:data:`repro.network.latency.HOP_CYCLES`), directory
    occupancy at the home node, and optional M/D/1 queueing delays driven
    by the simulated miss stream plus a synthetic ``background_load``
    (see :mod:`repro.network`).

    Attributes
    ----------
    provider:
        ``"table"`` (flat Table 1 latencies) or ``"mesh"`` (hop-based).
    directory_cycles:
        Directory/memory occupancy per transaction at the home node (the
        service time of the home's queue under contention).
    background_load:
        Synthetic utilization in ``[0, 1)`` added to every link and
        directory — the "network load" axis of the contention sweep.
    contention:
        Model queueing delays at links and directories (mesh provider
        only).  With it off
        the mesh provider is a pure zero-load hop model.
    """

    provider: str = "table"
    directory_cycles: int = 6
    background_load: float = 0.0
    contention: bool = True

    def __post_init__(self) -> None:
        if self.provider not in NETWORK_PROVIDERS:
            raise ValueError(f"unknown network provider {self.provider!r}; "
                             f"choose from {NETWORK_PROVIDERS}")
        if self.directory_cycles <= 0:
            raise ValueError("directory_cycles must be positive")
        if not (0.0 <= self.background_load < 1.0):
            raise ValueError("background_load must be in [0, 1)")

    def to_dict(self) -> dict:
        """JSON-stable representation (used in result-cache keys)."""
        return {
            "provider": self.provider,
            "directory_cycles": self.directory_cycles,
            "background_load": self.background_load,
            "contention": self.contention,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "NetworkConfig":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad shape.

        Unknown keys are rejected rather than ignored so a misspelled
        knob in a wire payload or hand-written config surfaces as an
        error instead of silently running the default.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown NetworkConfig field(s): {unknown}")
        try:
            return cls(**dict(data))
        except TypeError as exc:
            raise ValueError(f"malformed NetworkConfig payload: {exc}") from exc


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated machine organisation.

    Attributes
    ----------
    n_processors:
        Total processor count (the paper fixes 64).
    cluster_size:
        Processors sharing one cluster cache; must divide ``n_processors``.
    cache_kb_per_processor:
        Per-processor share of the cluster cache in KB, or ``None`` for
        infinite caches.  Cluster capacity = this × ``cluster_size``.
    associativity:
        ``None`` = fully associative (the paper's model); an int enables the
        set-associative extension.
    line_size, page_size:
        Geometry in bytes.
    network:
        Interconnect model selection (:class:`NetworkConfig`).  The default
        flat-table provider reproduces the paper exactly; the mesh provider
        makes miss latency hop- and load-dependent.
    protocol:
        Coherence-protocol backend, one of :data:`PROTOCOLS`.  The default
        ``"directory"`` is the paper's protocol and reproduces the
        historical results bit for bit; the name selects a memory-system
        factory from the ``repro.memory`` protocol registry everywhere a
        run constructs its memory system.
    """

    n_processors: int = 64
    cluster_size: int = 1
    cache_kb_per_processor: float | None = None
    associativity: int | None = None
    line_size: int = DEFAULT_LINE_SIZE
    page_size: int = DEFAULT_PAGE_SIZE
    network: NetworkConfig = field(default_factory=NetworkConfig)
    protocol: str = "directory"

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown coherence protocol {self.protocol!r}; "
                             f"choose from {PROTOCOLS}")
        if self.n_processors <= 0:
            raise ValueError("n_processors must be positive")
        if self.cluster_size <= 0:
            raise ValueError("cluster_size must be positive")
        if self.n_processors % self.cluster_size != 0:
            raise ValueError(
                f"cluster_size {self.cluster_size} does not divide "
                f"n_processors {self.n_processors}"
            )
        if self.cache_kb_per_processor is not None \
                and not 0 < self.cache_kb_per_processor < math.inf:
            raise ValueError("cache_kb_per_processor must be positive and "
                             "finite, or None")
        if self.line_size <= 0 or self.page_size % self.line_size != 0:
            raise ValueError("page_size must be a positive multiple of line_size")
        if self.associativity is not None and self.associativity <= 0:
            raise ValueError("associativity must be positive or None")

    # ---------------------------------------------------------------- derived
    @property
    def n_clusters(self) -> int:
        """Number of clusters (= directory/memory nodes) in the machine."""
        return self.n_processors // self.cluster_size

    @property
    def cluster_cache_lines(self) -> int | None:
        """Cluster cache capacity in lines (``None`` = infinite)."""
        if self.cache_kb_per_processor is None:
            return None
        total_bytes = self.cache_kb_per_processor * 1024 * self.cluster_size
        lines = int(total_bytes // self.line_size)
        return max(lines, 1)

    @property
    def processor_cache_lines(self) -> int | None:
        """One processor's share of the cache in lines (``None`` =
        infinite): the capacity of each per-processor cache of the
        snoopy organisation, which has no shared cluster cache."""
        if self.cache_kb_per_processor is None:
            return None
        return max(int(self.cache_kb_per_processor * 1024
                       // self.line_size), 1)

    def cluster_of(self, processor: int) -> int:
        """Cluster that processor ``processor`` belongs to.

        Processors are assigned to clusters contiguously (0..k-1 in cluster
        0, ...), matching how SPLASH codes map neighbouring process ids to
        neighbouring partitions — this contiguity is what lets clustering
        capture near-neighbour communication (paper §4, Ocean discussion).
        """
        if not (0 <= processor < self.n_processors):
            raise ValueError(f"processor {processor} out of range")
        return processor // self.cluster_size

    def processors_of(self, cluster: int) -> range:
        """Processor ids belonging to ``cluster``."""
        if not (0 <= cluster < self.n_clusters):
            raise ValueError(f"cluster {cluster} out of range")
        lo = cluster * self.cluster_size
        return range(lo, lo + self.cluster_size)

    # ---------------------------------------------------------------- variants
    def with_clusters(self, cluster_size: int) -> "MachineConfig":
        """Copy of this config with a different cluster size."""
        return replace(self, cluster_size=cluster_size)

    def with_cache_kb(self, cache_kb_per_processor: float | None) -> "MachineConfig":
        """Copy of this config with a different per-processor cache size."""
        return replace(self, cache_kb_per_processor=cache_kb_per_processor)

    def with_associativity(self, associativity: int | None) -> "MachineConfig":
        """Copy of this config with a different cache associativity."""
        return replace(self, associativity=associativity)

    def with_network(self, network: NetworkConfig) -> "MachineConfig":
        """Copy of this config with a different interconnect model."""
        return replace(self, network=network)

    def with_protocol(self, protocol: str) -> "MachineConfig":
        """Copy of this config with a different coherence protocol."""
        return replace(self, protocol=protocol)

    def trace_signature(self) -> dict:
        """The machine fields the *reference stream* depends on.

        Applications consult the machine only for processor count (SPMD
        partitioning), line size (span emission granularity), and page size
        (region rounding) when generating their operation streams; cluster
        size, cache sizing, latencies, and the network model affect *timing
        and placement*, never the streams themselves.  The compiled-trace
        cache (:mod:`repro.sim.compiled`) keys on exactly this dict, which
        is what lets one captured trace replay across an entire
        clustering × cache-size sweep.
        """
        return {
            "n_processors": self.n_processors,
            "line_size": self.line_size,
            "page_size": self.page_size,
        }

    def to_dict(self) -> dict:
        """JSON-stable representation of the *complete* machine description.

        Every field that can change a simulation outcome appears here; the
        persistent result cache hashes this dict, so two configs with equal
        ``to_dict()`` are guaranteed interchangeable and any field change
        produces a different cache key.
        """
        return {
            "n_processors": self.n_processors,
            "cluster_size": self.cluster_size,
            "cache_kb_per_processor": self.cache_kb_per_processor,
            "associativity": self.associativity,
            "line_size": self.line_size,
            "page_size": self.page_size,
            "network": self.network.to_dict(),
            "protocol": self.protocol,
        }

    def describe(self) -> str:
        """One-line human-readable summary."""
        cache = ("inf" if self.cache_kb_per_processor is None
                 else f"{self.cache_kb_per_processor:g}KB/proc")
        assoc = "full" if self.associativity is None else f"{self.associativity}-way"
        proto = "" if self.protocol == "directory" else f", {self.protocol}"
        return (f"{self.n_processors}p, {self.cluster_size}/cluster "
                f"({self.n_clusters} clusters), cache {cache} ({assoc}), "
                f"{self.line_size}B lines{proto}")
