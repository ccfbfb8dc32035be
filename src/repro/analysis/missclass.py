"""Miss-class analysis: where clustering's benefit (or cost) comes from.

The paper's §2 decomposes the cluster-miss-rate reduction into prefetching,
obviated communication, and working-set overlap, and its §4 discussion of
LU/Radix hinges on *merge* anatomy (prefetches that arrive too late).
These helpers turn the per-cluster :class:`~repro.core.metrics.MissCounters`
of a sweep into those decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.metrics import MissCause
from ..core.study import SweepPoint

__all__ = ["MissBreakdownRow", "miss_breakdown", "merge_anatomy",
           "render_miss_breakdown"]


@dataclass(frozen=True)
class MissBreakdownRow:
    """Aggregate miss statistics for one configuration."""

    cluster_size: int
    references: int
    misses: int
    miss_rate: float
    cold: int
    coherence: int
    capacity: int
    merges: int
    merge_refetches: int
    upgrades: int
    prefetch_hits: int


def miss_breakdown(sweep: Mapping[int, SweepPoint]) -> list[MissBreakdownRow]:
    """One row per cluster size of a cluster sweep."""
    rows = []
    for c in sorted(sweep):
        m = sweep[c].result.misses
        rows.append(MissBreakdownRow(
            cluster_size=c,
            references=m.references,
            misses=m.misses,
            miss_rate=m.miss_rate,
            cold=m.by_cause[MissCause.COLD],
            coherence=m.by_cause[MissCause.COHERENCE],
            capacity=m.by_cause[MissCause.CAPACITY],
            merges=m.merges,
            merge_refetches=m.merge_refetches,
            upgrades=m.upgrade_misses,
            prefetch_hits=m.prefetch_hits,
        ))
    return rows


def merge_anatomy(sweep: Mapping[int, SweepPoint]) -> dict[int, dict[str, float]]:
    """Per cluster size: how much load stall turned into merge stall.

    The paper (LU, §4): "load stall time is reduced by more than a factor
    of two.  However, most of this time is replaced by merge stall time" —
    prefetching works but arrives too late.  Values are mean cycles per
    processor.
    """
    out: dict[int, dict[str, float]] = {}
    for c in sorted(sweep):
        bd = sweep[c].result.breakdown
        out[c] = {
            "load": float(bd.load),
            "merge": float(bd.merge),
            "load_plus_merge": float(bd.load + bd.merge),
        }
    return out


def render_miss_breakdown(rows: list[MissBreakdownRow], title: str) -> str:
    """Aligned text table of :func:`miss_breakdown` output."""
    header = (f"{'cluster':>8} {'refs':>10} {'misses':>9} {'rate':>8} "
              f"{'cold':>8} {'coher':>8} {'capac':>8} {'merge':>7} "
              f"{'refetch':>8} {'upgr':>7} {'prefetch':>9}")
    lines = [title, header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.cluster_size:>7}p {r.references:>10,} {r.misses:>9,} "
            f"{r.miss_rate:8.4f} {r.cold:>8,} {r.coherence:>8,} "
            f"{r.capacity:>8,} {r.merges:>7,} {r.merge_refetches:>8,} "
            f"{r.upgrades:>7,} {r.prefetch_hits:>9,}")
    return "\n".join(lines)
