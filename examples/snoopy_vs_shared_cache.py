#!/usr/bin/env python
"""Shared-cache clusters vs shared-main-memory (snoopy) clusters.

The paper's §2 describes both organisations and evaluates the first; the
library implements both.  This example runs MP3D — the communication
stress test — on each, at the same cluster size and cache budget, and
reports where the time goes plus the cache-to-cache transfer count that is
the snoopy organisation's distinctive benefit.

Run:  python examples/snoopy_vs_shared_cache.py
"""

from repro.apps.registry import build_app
from repro.core import MachineConfig
from repro.memory.snoopy import SnoopyClusterMemorySystem
from repro.sim.stats import summarize

APP_KWARGS = {"n_particles": 8000, "n_steps": 2}


def main() -> None:
    config = MachineConfig(n_processors=16, cluster_size=4,
                           cache_kb_per_processor=4)

    print(f"=== shared-cache cluster: {config.describe()} ===")
    app = build_app("mp3d", config, **APP_KWARGS)
    shared = app.run()
    print(summarize(shared).format())
    print()

    print("=== snoopy shared-memory cluster (same budget) ===")
    app = build_app("mp3d", config, **APP_KWARGS)
    mem = SnoopyClusterMemorySystem(config, app.allocator)
    snoopy = app.run(memory=mem)
    print(summarize(snoopy).format())
    print(f"cache-to-cache transfers: {mem.c2c_transfers:,}")
    print()

    ratio = snoopy.execution_time / shared.execution_time
    print(f"snoopy / shared-cache execution time: {ratio:.2f}")
    print("Shared caches pool capacity and kill intra-cluster invalidations;")
    print("snoopy clusters keep private hit times but duplicate working sets")
    print("and pay the bus penalty — the trade-off of the paper's Section 2.")


if __name__ == "__main__":
    main()
