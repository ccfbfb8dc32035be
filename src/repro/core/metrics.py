"""Result metrics: execution-time breakdown and miss accounting.

The paper reports every experiment as a stacked bar of **normalized execution
time** split into four components (Figures 2-8):

* ``cpu``   — busy time: computation plus single-cycle cache hits,
* ``load``  — read-miss stall time (only READ misses stall; WRITE and
  UPGRADE latencies are hidden by store buffers + relaxed consistency, §3.1),
* ``merge`` — time blocked on a line already being fetched by a cluster-mate
  (the paper's *merge stall*, the signature of too-late prefetching),
* ``sync``  — barrier/lock wait time, including end-of-program slack.

Misses are classified along two axes: the paper's protocol kinds
(READ / WRITE / UPGRADE, §3.1) and the textbook cause classes the paper's
argument rests on (cold, coherence/communication, capacity — §2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

__all__ = ["MissCause", "MissCounters", "NetworkStats", "TimeBreakdown",
           "RunResult"]


def _num(value: Any) -> int | float:
    """Validate a JSON number, preserving its exact type.

    Breakdown components are ints per processor but *means* over processors
    (floats) in :attr:`RunResult.breakdown`, so coercing to either int or
    float would break byte-identical round-trips.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return value


class MissCause(Enum):
    """Cause-level miss taxonomy used in the paper's analysis (§2)."""

    COLD = "cold"            #: first access to the line by this cluster
    COHERENCE = "coherence"  #: line previously invalidated out of the cluster
    CAPACITY = "capacity"    #: line previously replaced (finite caches only)

    # hot: ``by_cause[cause] += 1`` runs once per miss.  Members are
    # singletons compared by identity, so the id-based C-level hash is
    # consistent with equality and avoids Enum.__hash__'s Python frame
    __hash__ = object.__hash__


@dataclass(slots=True)
class MissCounters:
    """Counts of references, hits, and misses by kind and by cause.

    ``references`` and ``hits`` are **derived**, not stored: every access
    is a read or a write, and every access ultimately resolves as exactly
    one of hit / read miss / write miss / upgrade miss, so

    * ``references = reads + writes``
    * ``hits = reads + writes - read_misses - write_misses - upgrade_misses``

    The protocol layer therefore increments one counter per access instead
    of three — a real saving on the hit path, which dominates every
    simulation.  The identities are exact whenever no access is mid-flight
    (between a merge and its retry, a read is counted in ``reads`` but not
    yet in ``hits``/``read_misses``); end-of-run results, serialization and
    aggregation all satisfy them.  Serialized payloads still carry both
    keys, byte-identical to the stored-counter format.
    """

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    upgrade_misses: int = 0
    merges: int = 0
    #: merged reads whose line was invalidated mid-flight and re-fetched
    merge_refetches: int = 0
    #: first hit by a processor other than the one whose miss fetched the
    #: line — the cluster *prefetching* benefit of the paper's §2
    prefetch_hits: int = 0
    by_cause: dict[MissCause, int] = field(
        default_factory=lambda: {c: 0 for c in MissCause})

    @property
    def references(self) -> int:
        """Total accesses (every reference is a read or a write)."""
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        """Accesses that resolved in-cache (references minus all misses)."""
        return (self.reads + self.writes - self.read_misses
                - self.write_misses - self.upgrade_misses)

    @property
    def misses(self) -> int:
        """READ + WRITE misses (the paper's cluster-memory miss count).

        UPGRADEs are not data fetches and MERGEs piggyback on an existing
        fetch, so neither adds to the miss count.
        """
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        """Misses per reference (0.0 when nothing was referenced)."""
        return self.misses / self.references if self.references else 0.0

    def record_cause(self, cause: MissCause) -> None:
        """Attribute one miss to a cause class."""
        self.by_cause[cause] += 1

    def merged_into(self, other: "MissCounters") -> None:
        """Accumulate self into ``other`` (used to aggregate clusters).

        The derived ``references``/``hits`` need no accumulation: both are
        linear in the stored fields, so the sum's derived values equal the
        derived values' sum.
        """
        other.reads += self.reads
        other.writes += self.writes
        other.read_misses += self.read_misses
        other.write_misses += self.write_misses
        other.upgrade_misses += self.upgrade_misses
        other.merges += self.merges
        other.merge_refetches += self.merge_refetches
        other.prefetch_hits += self.prefetch_hits
        for cause, n in self.by_cause.items():
            other.by_cause[cause] += n

    # ------------------------------------------------------- serialization
    #: JSON keys, in the emitted order; references/hits are derived but
    #: still serialized so the payload format is unchanged
    _INT_FIELDS = ("references", "reads", "writes", "hits", "read_misses",
                   "write_misses", "upgrade_misses", "merges",
                   "merge_refetches", "prefetch_hits")
    #: the stored (non-derived) subset — what the constructor accepts
    _STORED_FIELDS = ("reads", "writes", "read_misses", "write_misses",
                      "upgrade_misses", "merges", "merge_refetches",
                      "prefetch_hits")

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (cause keys become their strings)."""
        out: dict[str, Any] = {f: getattr(self, f) for f in self._INT_FIELDS}
        out["by_cause"] = {c.value: n for c, n in self.by_cause.items()}
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MissCounters":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad shape.

        ``references``/``hits`` must be present (every serialized payload
        carries them) and must satisfy the derivation identities — a
        mismatch means the payload was hand-edited or corrupted.
        """
        try:
            kwargs = {f: _num(data[f]) for f in cls._STORED_FIELDS}
            references = _num(data["references"])
            hits = _num(data["hits"])
            by_cause = {MissCause(k): _num(n)
                        for k, n in data["by_cause"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed MissCounters payload: {exc}") from exc
        for cause in MissCause:  # absent causes count zero
            by_cause.setdefault(cause, 0)
        out = cls(by_cause=by_cause, **kwargs)
        if references != out.references or hits != out.hits:
            raise ValueError(
                f"inconsistent MissCounters payload: references={references} "
                f"hits={hits} but derived references={out.references} "
                f"hits={out.hits}")
        return out


@dataclass
class NetworkStats:
    """Interconnect counters accumulated by a hop-based latency provider.

    Filled in by :class:`repro.network.latency.MeshLatency`; runs under the
    default flat-table provider carry no network stats (``RunResult.network
    is None``).

    Attributes
    ----------
    messages:
        Directory transactions routed over the network (one per miss that
        reached the home node).
    hops:
        Total hops traversed by all transaction legs.
    link_busy_cycles:
        Cycles of link occupancy recorded by the contention model.
    directory_busy_cycles:
        Cycles of home-directory occupancy recorded by the contention model.
    queue_delay_cycles:
        Total queueing delay added on top of zero-load latencies.
    peak_link_utilization:
        Highest per-link utilization (including background load) observed
        when a transaction was routed.
    """

    messages: int = 0
    hops: int = 0
    link_busy_cycles: int = 0
    directory_busy_cycles: int = 0
    queue_delay_cycles: int = 0
    peak_link_utilization: float = 0.0

    # ------------------------------------------------------- serialization
    _INT_FIELDS = ("messages", "hops", "link_busy_cycles",
                   "directory_busy_cycles", "queue_delay_cycles")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {f: getattr(self, f) for f in self._INT_FIELDS}
        out["peak_link_utilization"] = self.peak_link_utilization
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkStats":
        try:
            kwargs = {f: _num(data[f]) for f in cls._INT_FIELDS}
            peak = _num(data["peak_link_utilization"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed NetworkStats payload: {exc}") from exc
        return cls(peak_link_utilization=peak, **kwargs)


@dataclass(slots=True)
class TimeBreakdown:
    """Execution time split into the paper's four stacked components.

    ``slots=True``: the engine's replay loop increments components on every
    op, and slot descriptors make those attribute stores a fixed-offset
    write instead of an instance-dict update.
    """

    cpu: int = 0
    load: int = 0
    merge: int = 0
    sync: int = 0

    @property
    def total(self) -> int:
        """Sum of all components (for one processor: its wall-clock time)."""
        return self.cpu + self.load + self.merge + self.sync

    def add(self, other: "TimeBreakdown") -> None:
        """Accumulate another breakdown into this one."""
        self.cpu += other.cpu
        self.load += other.load
        self.merge += other.merge
        self.sync += other.sync

    def fractions(self) -> dict[str, float]:
        """Each component as a fraction of the total (zeros if empty)."""
        t = self.total
        if t == 0:
            return {"cpu": 0.0, "load": 0.0, "merge": 0.0, "sync": 0.0}
        return {"cpu": self.cpu / t, "load": self.load / t,
                "merge": self.merge / t, "sync": self.sync / t}

    def normalized_to(self, baseline_total: int) -> dict[str, float]:
        """Components as percentages of a baseline run's total time.

        This is exactly the paper's bar format: every bar is normalized to
        the 1-processor-per-cluster execution time, so the baseline bar
        reads 100.0 and the components stack to the bar height.
        """
        if baseline_total <= 0:
            raise ValueError("baseline_total must be positive")

        # multiply before dividing: 100.0 * t / t is exactly 100.0 for any
        # integer t below 2**46, while t * (100.0 / t) need not be
        def pct(value: float) -> float:
            return 100.0 * value / baseline_total

        return {"cpu": pct(self.cpu), "load": pct(self.load),
                "merge": pct(self.merge), "sync": pct(self.sync),
                "total": pct(self.total)}

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, int]:
        return {"cpu": self.cpu, "load": self.load, "merge": self.merge,
                "sync": self.sync}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimeBreakdown":
        try:
            return cls(cpu=_num(data["cpu"]), load=_num(data["load"]),
                       merge=_num(data["merge"]), sync=_num(data["sync"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed TimeBreakdown payload: {exc}") from exc


@dataclass
class RunResult:
    """Everything one simulation run produces.

    Attributes
    ----------
    execution_time:
        Global finish time in cycles (max over processors).
    breakdown:
        Mean per-processor time breakdown.  Its ``total`` equals
        ``execution_time`` because end-of-run slack is charged to ``sync``.
    per_processor:
        Each processor's own breakdown, in processor order.
    misses:
        Aggregate miss counters over all clusters.
    per_cluster_misses:
        Miss counters per cluster, in cluster order.
    network:
        Interconnect counters when a hop-based latency provider ran
        (``None`` under the default flat-table provider).
    """

    execution_time: int
    breakdown: TimeBreakdown
    per_processor: list[TimeBreakdown]
    misses: MissCounters
    per_cluster_misses: list[MissCounters]
    network: NetworkStats | None = None

    @property
    def n_processors(self) -> int:
        return len(self.per_processor)

    # ------------------------------------------------------- serialization
    # The JSON form is the persistent-result-cache storage format and the
    # determinism-test comparison format: ``to_json`` is canonical (sorted
    # keys, fixed separators), so byte-equal JSON ⟺ equal results.
    def to_dict(self) -> dict[str, Any]:
        out = {
            "execution_time": self.execution_time,
            "breakdown": self.breakdown.to_dict(),
            "per_processor": [b.to_dict() for b in self.per_processor],
            "misses": self.misses.to_dict(),
            "per_cluster_misses": [m.to_dict()
                                   for m in self.per_cluster_misses],
        }
        # absent (not null) when no network model ran: keeps the encoding of
        # flat-table runs — and therefore every golden fixture — unchanged
        if self.network is not None:
            out["network"] = self.network.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        try:
            return cls(
                execution_time=_num(data["execution_time"]),
                breakdown=TimeBreakdown.from_dict(data["breakdown"]),
                per_processor=[TimeBreakdown.from_dict(d)
                               for d in data["per_processor"]],
                misses=MissCounters.from_dict(data["misses"]),
                per_cluster_misses=[MissCounters.from_dict(d)
                                    for d in data["per_cluster_misses"]],
                network=(NetworkStats.from_dict(data["network"])
                         if data.get("network") is not None else None),
            )
        except ValueError:
            raise
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed RunResult payload: {exc}") from exc

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON encoding (round-trips via :meth:`from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":") if indent is None else None,
                          indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed RunResult JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("malformed RunResult JSON: not an object")
        return cls.from_dict(data)
