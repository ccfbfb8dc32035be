"""Working-set profiling (paper §5 and Table 3).

The paper's finite-capacity argument rests on the applications' working-set
structure: "scientific and engineering applications often have sharply
defined working sets", and clustering pays off exactly when the *overlapped*
working set of a cluster fits a cache that the individual working sets did
not.  This module measures that directly:

* :func:`working_set_curve` — miss rate (or read-stall time) as a function
  of per-processor cache size at a fixed cluster size;
* :func:`knee_of` — the smallest cache size whose miss rate is within a
  tolerance of the infinite-cache (cold+coherence only) floor: the paper's
  "working set" size;
* :func:`overlap_benefit` — how much the knee shrinks per processor when
  processors share a cache: the quantitative form of "overlapping working
  sets make more efficient use of cache real estate".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .config import MachineConfig
from .executor import SweepExecutor
from .study import CacheKey, ClusteringStudy

__all__ = ["WorkingSetPoint", "WorkingSetCurve", "working_set_curve",
           "knee_of", "overlap_benefit", "DEFAULT_WS_SIZES_KB"]

#: log-spaced per-processor cache sizes probed by default (KB; None = inf)
DEFAULT_WS_SIZES_KB: tuple[CacheKey, ...] = (1, 2, 4, 8, 16, 32, 64, None)


@dataclass(frozen=True)
class WorkingSetPoint:
    """Miss behaviour at one per-processor cache size."""

    cache_kb: CacheKey
    miss_rate: float
    capacity_misses: int
    execution_time: int


@dataclass
class WorkingSetCurve:
    """Miss rate vs cache size for one application/cluster configuration."""

    app: str
    cluster_size: int
    points: list[WorkingSetPoint] = field(default_factory=list)

    def finite_points(self) -> list[WorkingSetPoint]:
        return [p for p in self.points if p.cache_kb is not None]

    def infinite_point(self) -> WorkingSetPoint | None:
        for p in self.points:
            if p.cache_kb is None:
                return p
        return None

    def rows(self) -> list[tuple[str, float, int]]:
        """(label, miss rate, capacity misses) rows for display."""
        out = []
        for p in self.points:
            label = "inf" if p.cache_kb is None else f"{p.cache_kb:g}KB"
            out.append((label, p.miss_rate, p.capacity_misses))
        return out


def working_set_curve(app: str,
                      sizes_kb: Sequence[CacheKey] = DEFAULT_WS_SIZES_KB,
                      cluster_size: int = 1,
                      base_config: MachineConfig | None = None,
                      app_kwargs: dict[str, Any] | None = None,
                      executor: "SweepExecutor | None" = None,
                      ) -> WorkingSetCurve:
    """Measure the miss-rate-vs-cache-size curve of one application.

    ``executor`` (optional) evaluates the probe sizes in parallel and/or
    serves them from the persistent result cache.
    """
    from .metrics import MissCause

    study = ClusteringStudy(app, base_config or MachineConfig(),
                            dict(app_kwargs or {}), executor=executor)
    sweep = study.capacity_sweep(cache_sizes=list(sizes_kb),
                                 cluster_sizes=(cluster_size,))
    curve = WorkingSetCurve(app, cluster_size)
    for kb in sizes_kb:
        point = sweep[(kb, cluster_size)]
        m = point.result.misses
        curve.points.append(WorkingSetPoint(
            cache_kb=kb,
            miss_rate=m.miss_rate,
            capacity_misses=m.by_cause[MissCause.CAPACITY],
            execution_time=point.result.execution_time,
        ))
    return curve


def knee_of(curve: WorkingSetCurve, tolerance: float = 0.10) -> CacheKey:
    """Smallest cache whose miss rate is within ``tolerance`` of infinite.

    Returns ``None`` (infinite) if no finite probe reaches the floor —
    i.e. the working set is larger than every probed size (paper: Raytrace
    and MP3D have "large" working sets).
    """
    inf_point = curve.infinite_point()
    if inf_point is None:
        raise ValueError("curve has no infinite-cache point to anchor the knee")
    floor = inf_point.miss_rate
    ceiling = floor * (1.0 + tolerance) + 1e-12
    for p in sorted(curve.finite_points(), key=lambda p: p.cache_kb):
        if p.miss_rate <= ceiling:
            return p.cache_kb
    return None


def overlap_benefit(app: str, cache_kb: float,
                    cluster_sizes: Iterable[int] = (1, 2, 4, 8),
                    base_config: MachineConfig | None = None,
                    app_kwargs: dict[str, Any] | None = None,
                    executor: "SweepExecutor | None" = None,
                    ) -> dict[int, float]:
    """Capacity misses per processor vs cluster size at fixed per-proc cache.

    A ratio well below 1.0 at large cluster sizes is working-set overlap:
    the shared cache holds one copy of read-shared data instead of one per
    processor.  (Disjoint working sets — LU, Ocean interiors — give ≈1.0.)
    """
    from .metrics import MissCause

    study = ClusteringStudy(app, base_config or MachineConfig(),
                            dict(app_kwargs or {}), executor=executor)
    cluster_sizes = list(cluster_sizes)
    sweep = study.cluster_sweep(cache_kb, cluster_sizes)
    out: dict[int, float] = {}
    baseline: float | None = None
    for c in cluster_sizes:
        point = sweep[c]
        cap = point.result.misses.by_cause[MissCause.CAPACITY]
        if baseline is None:
            baseline = float(cap) if cap else 1.0
        out[c] = cap / baseline if baseline else 0.0
    return out
