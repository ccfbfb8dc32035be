"""Sweep driver: run one application across cluster sizes and cache sizes.

This module is the experimental harness behind every figure of the paper:

* :meth:`ClusteringStudy.cluster_sweep` — fix the per-processor cache size
  (or infinite), vary processors-per-cluster (Figures 2 and 3);
* :meth:`ClusteringStudy.capacity_sweep` — the full cache-size ×
  cluster-size grid (Figures 4-8);
* :func:`normalize_sweep` — the paper's normalization: every bar is
  expressed as a percentage of the 1-processor-per-cluster execution time
  *at the same cache size* ("The bars for every cache size ... are
  normalized to the 1 processor per cache time with that cache size").

Every point builds a **fresh application instance** (applications carry
their numerical state) with the same seed, so all configurations solve the
identical problem.

Execution is delegated to a :class:`~repro.core.executor.SweepExecutor`:
attach one to parallelize a sweep over processes and/or reuse finished
points from the persistent result cache.  Without one, a default
in-process, uncached executor reproduces the historical behaviour
exactly.  Either way, points share compiled traces (:mod:`repro.sim.compiled`): an app's
reference stream is captured once and replayed at every other point of
the sweep, which is where most of a sweep's wall-clock used to go.
Each individual point is ultimately evaluated by the canonical runtime
pipeline, :class:`repro.runtime.RunSession` (``docs/INTERNALS.md`` §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from ..runtime.plan import RunRequest
from .config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES,
                     PAPER_NETWORK_LOADS, PROTOCOLS, MachineConfig)
from .executor import SweepExecutor, raise_failures
from .metrics import RunResult

__all__ = ["SweepPoint", "ClusteringStudy", "normalize_sweep",
           "CacheKey", "cache_label"]

#: a per-processor cache size in KB, or None for infinite
CacheKey = float | int | None


def cache_label(cache_kb: CacheKey) -> str:
    """Human label for a cache size key ('4k', '32k', 'inf')."""
    return "inf" if cache_kb is None else f"{cache_kb:g}k"


@dataclass(frozen=True)
class SweepPoint:
    """One simulated configuration and its outcome."""

    app: str
    cluster_size: int
    cache_kb: CacheKey
    result: RunResult

    @property
    def execution_time(self) -> int:
        return self.result.execution_time


@dataclass
class ClusteringStudy:
    """Runs one application over the paper's machine-organisation grid.

    Parameters
    ----------
    app:
        Registry name of the application.
    base_config:
        Machine template; cluster size and cache size are overridden per
        point.  Defaults to the paper's 64-processor machine.
    app_kwargs:
        Problem-size overrides forwarded to the application constructor.
    executor:
        Evaluation engine for the sweep points.  ``None`` means a fresh
        uncached :class:`SweepExecutor` at ``jobs=1`` — the original
        in-process behaviour.  An executor with ``jobs > 1`` fans the grid
        out over worker processes; an attached result cache memoizes finished points.  Failed
        points raise :class:`~repro.core.executor.SweepExecutionError`.
    """

    app: str
    base_config: MachineConfig = field(default_factory=MachineConfig)
    app_kwargs: dict[str, Any] = field(default_factory=dict)
    executor: SweepExecutor | None = None

    def sweep(self, grid: Mapping[Any, RunRequest]) -> dict[Any, SweepPoint]:
        """Evaluate a ``{key: RunRequest}`` grid into ``{key: SweepPoint}``.

        The one place the study reaches the executor: every sweep below
        is a grid expression over it.  Failed points raise
        :class:`~repro.core.executor.SweepExecutionError`.
        """
        executor = self.executor if self.executor is not None \
            else SweepExecutor()
        outcomes = executor.run(grid.values(), self.base_config)
        raise_failures(outcomes)
        return {key: SweepPoint(self.app, o.spec.cluster_size,
                                o.spec.cache_kb, o.result)
                for key, o in zip(grid, outcomes)}

    def _spec(self, cluster_size: int, cache_kb: CacheKey,
              **overrides: Any) -> RunRequest:
        return RunRequest.make(self.app, cluster_size, cache_kb,
                               self.app_kwargs, **overrides)

    def run_point(self, cluster_size: int, cache_kb: CacheKey) -> SweepPoint:
        """Simulate one (cluster size, cache size) configuration."""
        return self.sweep({0: self._spec(cluster_size, cache_kb)})[0]

    def cluster_sweep(self, cache_kb: CacheKey = None,
                      cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                      ) -> dict[int, SweepPoint]:
        """Vary processors-per-cluster at one cache size (Figure 2/3 axis)."""
        return self.sweep({c: self._spec(c, cache_kb) for c in cluster_sizes})

    def capacity_sweep(self, cache_sizes: Iterable[CacheKey] = PAPER_CACHE_SIZES_KB,
                       cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                       ) -> dict[tuple[CacheKey, int], SweepPoint]:
        """The cache-size × cluster-size grid of Figures 4-8."""
        return self.sweep({(kb, c): self._spec(c, kb)
                           for kb in cache_sizes for c in cluster_sizes})

    def contention_sweep(self, loads: Iterable[float] = PAPER_NETWORK_LOADS,
                         cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                         cache_kb: CacheKey = None,
                         ) -> dict[tuple[float, int], SweepPoint]:
        """The network-load × cluster-size grid under the mesh provider.

        Every point runs with ``provider="mesh"`` and the given
        ``background_load``; the directory cost comes from the base
        config's ``network`` block.  Load 0.0 anchors the sweep
        with contention *off* — the pure calibrated hop model, which
        matches the flat Table 1 provider's execution times — so the
        degradation baseline and the Table-1 cross-check are the same
        point and every nonzero load measures queueing (the simulated
        traffic's own plus the synthetic background) against an
        uncontended network.

        Returns ``{(background_load, cluster_size): point}``;
        :func:`normalize_sweep` groups such keys by load, and
        :func:`repro.analysis.figures.figure_from_contention_sweep`
        renders execution time vs load at each cluster size.
        """
        nets = {float(load): replace(self.base_config.network,
                                     provider="mesh",
                                     background_load=float(load),
                                     contention=load > 0)
                for load in loads}
        return self.sweep({(load, c): self._spec(c, cache_kb, network=net)
                           for load, net in nets.items()
                           for c in cluster_sizes})

    def protocol_sweep(self, protocols: Iterable[str] = PROTOCOLS,
                       cluster_sizes: Iterable[int] = PAPER_CLUSTER_SIZES,
                       cache_kb: CacheKey = None,
                       ) -> dict[tuple[str, int], SweepPoint]:
        """The coherence-protocol × cluster-size grid.

        Every point overrides the base config's ``protocol`` through the
        registry seam (:func:`repro.memory.make_memory_system`), so the
        same compiled trace drives a full-bit-vector directory machine,
        a snoopy-bus cluster machine, and a directoryless shared-LLC
        machine over identical workloads (the native kernel implements
        all three).

        Returns ``{(protocol, cluster_size): point}``;
        :func:`repro.analysis.figures.figure_from_protocol_sweep`
        renders the cross-protocol comparison and
        :func:`repro.analysis.tables.render_protocol_comparison` the
        companion table.
        """
        return self.sweep({(p, c): self._spec(c, cache_kb, protocol=p)
                           for p in protocols for c in cluster_sizes})


def normalize_sweep(points: Mapping[tuple[CacheKey, int], SweepPoint] |
                    Mapping[int, SweepPoint],
                    ) -> dict[Any, dict[str, float]]:
    """Express every point's breakdown as % of its cache size's baseline.

    Accepts either a cluster sweep (``{cluster: point}``) or a capacity
    sweep (``{(cache_kb, cluster): point}``).  Each group of points sharing
    a cache size is normalized to the group's 1p member, reproducing the
    paper's bar heights (baseline bar = 100.0).
    """
    def group_and_cluster(key: Any) -> tuple[Any, int]:
        return key if isinstance(key, tuple) else (None, key)

    baselines = {group_and_cluster(key)[0]: point.result.execution_time
                 for key, point in points.items()
                 if group_and_cluster(key)[1] == 1}
    out: dict[Any, dict[str, float]] = {}
    for key, point in points.items():
        group = group_and_cluster(key)[0]
        if group not in baselines:
            raise ValueError(
                f"no baseline (cluster=1) run for group "
                f"{group!r}")
        out[key] = point.result.breakdown.normalized_to(baselines[group])
    return out
