"""Memory-system substrate: address space, page placement, cluster caches,
full-bit-vector directory, and the pluggable coherence-protocol backends.

Cache state is one :class:`Cache` of ``n_sets`` × ``ways`` lines with one
record per resident line, and everything known about a line outside the
caches — directory entry, miss history, home — is one :class:`LineRecord`
per line ever missed on; the object-per-entry directory and the DLS
protocol the property suites compare against are a test oracle and live
in ``tests/refmodel.py``.

Protocol registry
-----------------
Which backend a run uses is a :class:`~repro.core.config.MachineConfig`
axis (``config.protocol``), realised here: :data:`PROTOCOL_REGISTRY` maps
every name in :data:`repro.core.config.PROTOCOLS` to a memory-system
factory, and :func:`make_memory_system` is the one construction seam the
execution layers (``apps.base``, ``runtime.session``) go through.
Constructing a concrete class directly still works for probes and tests,
but bypasses protocol selection.
"""

from typing import TYPE_CHECKING, Callable

from ..core.config import PROTOCOLS, MachineConfig
from .address import AddressSpace, Region, line_of, page_of
from .allocation import PageAllocator
from .cache import EXCLUSIVE, SHARED, Cache, Eviction
from .coherence import (READ_HIT, READ_MERGE, READ_MISS,
                        CoherentMemorySystem, MemorySystem)
from .directory import (DIR_EXCLUSIVE, DIR_SHARED, NOT_CACHED, Directory,
                        LineRecord)
from .dls import DLSMemorySystem
from .snoopy import SnoopyClusterMemorySystem as _SnoopyClusterMemorySystem

__all__ = [
    "AddressSpace", "Region", "line_of", "page_of",
    "PageAllocator",
    "SHARED", "EXCLUSIVE", "Eviction", "Cache",
    "NOT_CACHED", "DIR_SHARED", "DIR_EXCLUSIVE", "Directory", "LineRecord",
    "READ_HIT", "READ_MERGE", "READ_MISS", "MemorySystem",
    "CoherentMemorySystem", "DLSMemorySystem",
    "PROTOCOL_REGISTRY", "make_memory_system",
]

if TYPE_CHECKING:  # pragma: no cover
    MemoryFactory = Callable[[MachineConfig, PageAllocator | None],
                             MemorySystem]

#: protocol name -> ``factory(config, allocator) -> memory system``.
#: Covers every name in :data:`repro.core.config.PROTOCOLS`; the config
#: layer validates names, this table realises them.
PROTOCOL_REGISTRY: "dict[str, MemoryFactory]" = {
    "directory": CoherentMemorySystem,
    "snoopy": _SnoopyClusterMemorySystem,
    "dls": DLSMemorySystem,
}

assert set(PROTOCOL_REGISTRY) == set(PROTOCOLS), \
    "protocol registry out of sync with repro.core.config.PROTOCOLS"


def make_memory_system(config: MachineConfig,
                       allocator: PageAllocator | None = None) -> MemorySystem:
    """Build the memory system ``config.protocol`` selects.

    The single construction seam every execution layer uses: the default
    ``"directory"`` protocol returns the historical
    :class:`CoherentMemorySystem` (bit-identical results), any other
    name returns its registered backend.  Every backend is a
    :class:`MemorySystem` (``cluster_of``/``counters``/
    ``aggregate_counters``/``network_stats``/``check_invariants``) with
    its own hot ``read``/``write``.
    """
    factory = PROTOCOL_REGISTRY.get(config.protocol)
    if factory is None:  # pragma: no cover - config validation precedes
        raise ValueError(f"no memory-system factory registered for "
                         f"protocol {config.protocol!r}")
    return factory(config, allocator)
