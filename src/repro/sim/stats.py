"""Run-level statistics: RunResult assembly and human-readable summaries.

Two halves:

* :func:`assemble` / :func:`build` — the step between the engine's event
  loop and :class:`~repro.core.metrics.RunResult`.  The engine finishes a
  run with per-processor time breakdowns and a memory system; everything
  after that — the mean breakdown, the aggregated miss counters, the
  optional per-cluster and network sections — is *stats assembly*, kept
  out of the hot-loop module.  :func:`build` makes the result from its
  parts, which is all the native replay (no memory system) has.
* :class:`RunSummary` / :func:`summarize` — turn raw counters into the
  quantities the paper talks about (miss rates, component fractions) for
  CLI output, examples, and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.metrics import (MissCause, MissCounters, NetworkStats,
                            RunResult, TimeBreakdown)

__all__ = ["RunSummary", "assemble", "build", "summarize"]


def assemble(execution_time: int, breakdowns: list[TimeBreakdown],
             memory) -> RunResult:
    """The canonical :class:`RunResult` of a finished engine run.

    Mean breakdown over processors, aggregated miss counters, per-cluster
    counters when the memory system exposes ``counters``, and network
    stats when it exposes ``network_stats``.
    """
    per_cluster = getattr(memory, "counters", None)
    stats_of = getattr(memory, "network_stats", None)
    return build(execution_time, breakdowns, memory.aggregate_counters(),
                 list(per_cluster) if per_cluster else [],
                 stats_of() if stats_of is not None else None)


def build(execution_time: int, breakdowns: list[TimeBreakdown],
          misses: MissCounters, per_cluster: list[MissCounters],
          network: NetworkStats | None) -> RunResult:
    """The result from its parts (the native replay has no memory
    system to read them from)."""
    n = len(breakdowns)
    mean = TimeBreakdown()
    for bd in breakdowns:
        mean.add(bd)
    if n:
        mean = TimeBreakdown(cpu=mean.cpu / n, load=mean.load / n,
                             merge=mean.merge / n, sync=mean.sync / n)
    return RunResult(
        execution_time=execution_time,
        breakdown=mean,
        per_processor=breakdowns,
        misses=misses,
        per_cluster_misses=per_cluster,
        network=network,
    )


@dataclass(frozen=True)
class RunSummary:
    """Digest of one simulation run."""

    execution_time: int
    cpu_fraction: float
    load_fraction: float
    merge_fraction: float
    sync_fraction: float
    references: int
    miss_rate: float
    read_misses: int
    write_misses: int
    upgrade_misses: int
    merges: int
    merge_refetches: int
    prefetch_hits: int
    cold_misses: int
    coherence_misses: int
    capacity_misses: int
    #: interconnect counters when a network model ran (else None)
    network: NetworkStats | None = None

    def format(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"execution time       {self.execution_time:>14,} cycles",
            f"  cpu / load / merge / sync   "
            f"{self.cpu_fraction:6.1%} {self.load_fraction:6.1%} "
            f"{self.merge_fraction:6.1%} {self.sync_fraction:6.1%}",
            f"references           {self.references:>14,}",
            f"miss rate            {self.miss_rate:>14.4%}",
            f"  read / write / upgrade      "
            f"{self.read_misses:,} / {self.write_misses:,} / "
            f"{self.upgrade_misses:,}",
            f"  merges (refetched)          "
            f"{self.merges:,} ({self.merge_refetches:,})",
            f"  cluster prefetch hits       {self.prefetch_hits:,}",
            f"  cold / coherence / capacity "
            f"{self.cold_misses:,} / {self.coherence_misses:,} / "
            f"{self.capacity_misses:,}",
        ]
        net = self.network
        if net is not None:
            per = net.hops / net.messages if net.messages else 0.0
            lines.append(
                f"network              {net.messages:>14,} messages "
                f"({per:.2f} hops each)")
            lines.append(
                f"  queue delay / peak link util"
                f" {net.queue_delay_cycles:,} cyc / "
                f"{net.peak_link_utilization:.3f}")
        return "\n".join(lines)


def summarize(result: RunResult) -> RunSummary:
    """Build a :class:`RunSummary` from a run result."""
    fr = result.breakdown.fractions()
    m = result.misses
    return RunSummary(
        execution_time=result.execution_time,
        cpu_fraction=fr["cpu"],
        load_fraction=fr["load"],
        merge_fraction=fr["merge"],
        sync_fraction=fr["sync"],
        references=m.references,
        miss_rate=m.miss_rate,
        read_misses=m.read_misses,
        write_misses=m.write_misses,
        upgrade_misses=m.upgrade_misses,
        merges=m.merges,
        merge_refetches=m.merge_refetches,
        prefetch_hits=m.prefetch_hits,
        cold_misses=m.by_cause[MissCause.COLD],
        coherence_misses=m.by_cause[MissCause.COHERENCE],
        capacity_misses=m.by_cause[MissCause.CAPACITY],
        network=result.network,
    )
