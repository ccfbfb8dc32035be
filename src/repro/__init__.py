"""repro — reproduction of *The Benefits of Clustering in Shared Address
Space Multiprocessors: An Applications-Driven Investigation* (Erlichson,
Nayfeh, Singh & Olukotun; Stanford CSL-TR-94-632 / SC'95).

The package is an execution-driven simulator for clustered shared-memory
multiprocessors plus the paper's full experimental apparatus:

* :mod:`repro.memory` — shared-cache clusters, full-bit-vector directory,
  invalidation coherence, first-touch round-robin page placement;
* :mod:`repro.sim` — the event-driven multiprocessor engine (Tango-lite
  analog) with cpu/load/merge/sync time accounting;
* :mod:`repro.apps` — nine SPLASH-style applications (Barnes, FMM, FFT, LU,
  MP3D, Ocean, Radix, Raytrace, Volrend) that really compute and emit
  shared-reference streams;
* :mod:`repro.core` — machine configs (Table 1), sweep driver, the §6
  shared-cache cost model (Tables 4-7), and working-set profiling;
* :mod:`repro.network` — interconnect models behind a pluggable latency
  provider: mesh/crossbar topologies, hop-based Table-1-calibrated
  latencies, and M/D/1 queueing contention;
* :mod:`repro.analysis` — the paper's figures and tables, regenerated.

Quickstart::

    from repro import MachineConfig, run_app
    result = run_app("ocean", MachineConfig(n_processors=64, cluster_size=4))
    print(result.breakdown.fractions())
"""

from importlib import import_module

from ._version import __version__
from .core.config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES,
                          PAPER_NETWORK_LOADS, LatencyModel, MachineConfig,
                          NetworkConfig)
from .core.metrics import (MissCause, MissCounters, NetworkStats, RunResult,
                           TimeBreakdown)

__all__ = [
    "MachineConfig", "LatencyModel", "NetworkConfig",
    "PAPER_CLUSTER_SIZES", "PAPER_CACHE_SIZES_KB", "PAPER_NETWORK_LOADS",
    "MissCause", "MissCounters", "NetworkStats",
    "TimeBreakdown", "RunResult",
    "CoherentMemorySystem", "Engine", "PerfectMemory",
    "Work", "Read", "Write", "Barrier", "Lock", "Unlock",
    "summarize", "run_app", "__version__",
]

#: lazily re-exported name -> defining submodule: the simulator (and the
#: numpy it needs) loads on first use, so a cache-served command never
#: pays for it
_LAZY = {
    "CoherentMemorySystem": ".memory.coherence",
    "Engine": ".sim.engine", "PerfectMemory": ".sim.engine",
    "Work": ".sim.program", "Read": ".sim.program", "Write": ".sim.program",
    "Barrier": ".sim.program", "Lock": ".sim.program",
    "Unlock": ".sim.program",
    "summarize": ".sim.stats",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name], __name__),
                                      name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def run_app(name: str, config: MachineConfig, **app_kwargs):
    """Run one named application on one machine configuration.

    ``app_kwargs`` override the application's default (scaled-down) problem
    size; see :mod:`repro.apps.registry` for the knobs of each application.
    The run takes the canonical pipeline (:class:`repro.runtime.RunSession`:
    capture the stream, then replay it on the C kernel when there is one),
    like every figure.
    """
    from .runtime import RunRequest, RunSession

    return RunSession(config).run(RunRequest.make(
        name, config.cluster_size, config.cache_kb_per_processor, app_kwargs))
