"""Core of the clustering study: machine configuration, metrics, sweeps,
parallel execution with result caching, contention cost model, and
working-set profiling.

Only ``config`` and ``metrics`` load with the package; every other name
resolves its submodule on first access (``contention`` reaches the
simulator and numpy, which a cache-served sweep never needs).
"""

from importlib import import_module

from .config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES, LatencyModel,
                     MachineConfig)
from .metrics import MissCause, MissCounters, RunResult, TimeBreakdown

__all__ = [
    "MachineConfig", "LatencyModel",
    "PAPER_CLUSTER_SIZES", "PAPER_CACHE_SIZES_KB",
    "MissCause", "MissCounters", "TimeBreakdown", "RunResult",
    "ClusteringStudy", "SweepPoint", "normalize_sweep", "cache_label",
    "SweepExecutor", "PointOutcome", "SweepExecutionError",
    "ResultCache", "TraceStore",
    "SharedCacheCostModel", "LoadLatencyProfiler", "ExpansionTable",
    "bank_conflict_probability", "banks_for_cluster", "conflict_table",
    "PAPER_TABLE5",
    "working_set_curve", "knee_of", "overlap_benefit", "WorkingSetCurve",
    "ScalingCurve", "ScalingPoint", "effective_processors",
    "pushout",
]

#: lazily re-exported name -> defining submodule
_LAZY = {
    "ClusteringStudy": ".study", "SweepPoint": ".study",
    "normalize_sweep": ".study", "cache_label": ".study",
    "SweepExecutor": ".executor", "PointOutcome": ".executor",
    "SweepExecutionError": ".executor",
    "ResultCache": ".resultcache", "TraceStore": ".resultcache",
    "SharedCacheCostModel": ".contention",
    "LoadLatencyProfiler": ".contention", "ExpansionTable": ".contention",
    "bank_conflict_probability": ".contention",
    "banks_for_cluster": ".contention", "conflict_table": ".contention",
    "PAPER_TABLE5": ".contention",
    "working_set_curve": ".workingset", "knee_of": ".workingset",
    "overlap_benefit": ".workingset", "WorkingSetCurve": ".workingset",
    "ScalingCurve": ".scaling", "ScalingPoint": ".scaling",
    "effective_processors": ".scaling",
    "pushout": ".scaling",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name], __name__),
                                      name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
