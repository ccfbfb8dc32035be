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

import functools
import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, Mapping

__all__ = ["MissCause", "MissCounters", "NetworkStats", "TimeBreakdown",
           "RunResult"]


#: the types a JSON number decodes to; checked with ``type(v) in``, not
#: ``isinstance``, so a bool (an ``int`` subclass) is refused
_NUMBER = frozenset({int, float})


def _num(value: Any) -> int | float:
    """Validate a JSON number, preserving its exact type.

    Breakdown components are ints per processor but *means* over processors
    (floats) in :attr:`RunResult.breakdown`, so coercing to either int or
    float would break byte-identical round-trips.
    """
    if type(value) not in _NUMBER:
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

    @classmethod
    def summed(cls, records: list["MissCounters"]) -> "MissCounters":
        """The sum of ``records`` (the clusters'), a stored field at a
        time: the derived ``references``/``hits`` are linear in them."""
        records = (cls(), *records)  # none sum to zeros
        causes = zip(*map(_CAUSES_OF, [r.by_cause for r in records]))
        return cls(*map(sum, zip(*map(_STORED_OF, records))),
                   dict(zip(_CAUSES, map(sum, causes))))

    # ------------------------------------------------------- serialization
    #: JSON keys, in the emitted order; references/hits are derived but
    #: still serialized so the payload format is unchanged
    _INT_FIELDS = ("references", "reads", "writes", "hits", "read_misses",
                   "write_misses", "upgrade_misses", "merges",
                   "merge_refetches", "prefetch_hits")
    #: the stored (non-derived) subset — what the constructor accepts, in
    #: field order
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
            return _counters(data)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed MissCounters payload: {exc}") from exc


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

    @classmethod
    def mean(cls, breakdowns: list["TimeBreakdown"]) -> "TimeBreakdown":
        """The mean of ``breakdowns``, a component at a time (none: 0s)."""
        n = len(breakdowns)
        return cls(*(sum(column) / n for column in zip(
            *map(_BREAKDOWN_FIELDS, breakdowns)))) if n else cls()

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
            return _breakdown(data)
        except (KeyError, TypeError) as exc:
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
        """Inverse of :meth:`to_dict`, in one pass: every record is
        type-checked as it is built (the client's decode of each report
        and the CLI's of each cached result)."""
        try:
            network = data.get("network")
            return cls(
                execution_time=_num(data["execution_time"]),
                breakdown=_breakdown(data["breakdown"]),
                per_processor=[_breakdown(d) for d in data["per_processor"]],
                misses=_counters(data["misses"]),
                per_cluster_misses=[_counters(d)
                                    for d in data["per_cluster_misses"]],
                network=(None if network is None
                         else NetworkStats.from_dict(network)),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed RunResult payload: {exc}") from exc

    def to_json(self) -> str:
        """Canonical JSON, ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))``, written as the numbers in key order into
        a template of the result's shape when each is a finite ``int`` or
        ``float`` (round-trips via :meth:`from_json`)."""
        net, clusters = self.network, self.per_cluster_misses
        try:
            values = (*_BREAKDOWN_FIELDS(self.breakdown), self.execution_time,
                      *_counter_values(self.misses),
                      *(() if net is None else _NETWORK_FIELDS(net)),
                      *chain(*map(_counter_values, clusters)),
                      *chain(*map(_BREAKDOWN_FIELDS, self.per_processor)))
            if (_NUMBER.issuperset(map(type, values))
                    and math.isfinite(sum(values))):
                return _json_template(len(self.per_processor), len(clusters),
                                      net is not None) % values
        except (KeyError, OverflowError):  # a partial by_cause; a vast int
            pass
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed RunResult JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("malformed RunResult JSON: not an object")
        return cls.from_dict(data)


# ------------------------------------------------------------- encoding
# ``RunResult.to_json``: keys sorted, a ``%s`` (json's spelling) a number

_BREAKDOWN_FIELDS = attrgetter("cpu", "load", "merge", "sync")
_CAUSE_VALUES = itemgetter(*sorted(MissCause, key=attrgetter("value")))
_COUNTER_FIELDS = attrgetter(*sorted(MissCounters._INT_FIELDS))
_NETWORK_FIELDS = attrgetter(*sorted([*NetworkStats._INT_FIELDS,
                                      "peak_link_utilization"]))


def _counter_values(m: MissCounters) -> tuple:
    return _CAUSE_VALUES(m.by_cause) + _COUNTER_FIELDS(m)


@functools.lru_cache(maxsize=64)
def _json_template(n_processors: int, n_clusters: int, network: bool) -> str:
    """The canonical text of a zero result of this shape, each number a
    ``%s`` (json spells a ``0`` or ``0.0`` value nowhere else)."""
    zero = RunResult(0, TimeBreakdown(), [TimeBreakdown()] * n_processors,
                     MissCounters(), [MissCounters()] * n_clusters,
                     NetworkStats() if network else None)
    return re.sub(r":0(\.0)?(?=[,}])", ":%s", json.dumps(
        zero.to_dict(), sort_keys=True, separators=(",", ":")))


# ------------------------------------------------------------- decoding
# The record decoders behind the ``from_dict`` classmethods.  A missing
# key or a wrong container raises KeyError/TypeError/AttributeError, which
# the public decoder turns into its ValueError; a wrong value type, an
# unknown cause and inconsistent derived counts are ValueErrors here.

_CAUSE_OF = {cause.value: cause for cause in MissCause}
_CAUSES = tuple(MissCause)
_CAUSES_OF = itemgetter(*_CAUSES)
_STORED_OF = attrgetter(*MissCounters._STORED_FIELDS)
_BREAKDOWN_VALUES = itemgetter("cpu", "load", "merge", "sync")
#: the stored counters, then the two derived ones
_COUNTER_VALUES = itemgetter(*MissCounters._STORED_FIELDS, "references",
                             "hits")


def _breakdown(data: Mapping[str, Any]) -> TimeBreakdown:
    values = _BREAKDOWN_VALUES(data)
    if not _NUMBER.issuperset(map(type, values)):
        raise ValueError(f"malformed TimeBreakdown payload: expected "
                         f"numbers, got {values!r}")
    return TimeBreakdown(*values)


def _counters(data: Mapping[str, Any]) -> MissCounters:
    values = _COUNTER_VALUES(data)
    by_cause = dict.fromkeys(_CAUSES, 0)  # absent causes count zero
    for name, n in data["by_cause"].items():
        cause = _CAUSE_OF.get(name)
        if cause is None:
            raise ValueError(f"malformed MissCounters payload: unknown "
                             f"miss cause {name!r}")
        by_cause[cause] = n
    if not (_NUMBER.issuperset(map(type, values))
            and _NUMBER.issuperset(map(type, by_cause.values()))):
        raise ValueError(f"malformed MissCounters payload: expected "
                         f"numbers in {dict(data)!r}")
    reads, writes, read_misses, write_misses, upgrade_misses = values[:5]
    derived = (reads + writes,
               reads + writes - read_misses - write_misses - upgrade_misses)
    if values[8:] != derived:
        raise ValueError(
            f"inconsistent MissCounters payload: references={values[8]} "
            f"hits={values[9]} but derived references={derived[0]} "
            f"hits={derived[1]}")
    return MissCounters(*values[:8], by_cause)
