#!/usr/bin/env python
"""Writing your own workload against the public API.

The nine bundled applications are ordinary subclasses of
:class:`repro.apps.Application`; anything that can emit WORK / READ / WRITE
/ BARRIER / LOCK operations can be studied on the clustered machine.  This
example implements a fresh workload — a producer/consumer pipeline over a
shared ring buffer — and runs the standard clustering sweep on it.

The pattern is deliberately clustering-friendly: each consumer reads what
its neighbouring producer just wrote, so pairing producer and consumer in
one cluster converts coherence misses into cluster-cache hits.

Run:  python examples/custom_application.py
"""

from typing import Iterator

from repro.analysis import figure_from_cluster_sweep, render_rows
from repro.apps.base import Application, PhaseBarriers
from repro.core import ClusteringStudy, MachineConfig
from repro.sim.program import Barrier, Op, Read, Work, Write


class PipelineApp(Application):
    """Producer/consumer pairs over per-pair shared ring buffers.

    Even processors produce into a ring; the next-higher odd processor
    consumes from it.  Rounds are barrier-separated (a batch pipeline, not
    fine-grained flags, so the reference stream is deterministic).
    """

    name = "pipeline"

    def __init__(self, config: MachineConfig, items_per_round: int = 128,
                 rounds: int = 8, seed: int = 12345) -> None:
        super().__init__(config, seed)
        if config.n_processors % 2:
            raise ValueError("needs an even processor count")
        self.items = items_per_round
        self.rounds = rounds

    def place(self) -> None:
        n_pairs = self.config.n_processors // 2
        self.ring = self.space.allocate("pipeline.ring",
                                        n_pairs * self.items)
        # each pair's ring lives at the producer's cluster
        self.place_partitions(self.ring, n_partitions=n_pairs)

    def program(self, pid: int) -> Iterator[Op]:
        bar = PhaseBarriers()
        pair = pid // 2
        base = pair * self.items
        producing = pid % 2 == 0
        yield Barrier(bar())
        for _ in range(self.rounds):
            if producing:
                for i in range(self.items):
                    yield Work(12)                        # make an item
                    yield Write(self.ring.element(base + i))
            yield Barrier(bar())                          # batch handoff
            if not producing:
                for i in range(self.items):
                    yield Read(self.ring.element(base + i))
                    yield Work(20)                        # consume it
            yield Barrier(bar())


def main() -> None:
    config = MachineConfig(n_processors=16)
    # ClusteringStudy drives registry apps by name; for a custom class,
    # run the sweep directly and wrap each run in a SweepPoint:
    from repro.core.study import SweepPoint
    results = {}
    for cluster in (1, 2, 4):
        cfg = config.with_clusters(cluster)
        app = PipelineApp(cfg)
        results[cluster] = SweepPoint("pipeline", cluster, None, app.run())
    fig = figure_from_cluster_sweep(
        "Producer/consumer pipeline, infinite caches", results)
    print(render_rows(fig))
    print()
    print("2-way clustering pairs each producer with its consumer, so the")
    print("handoff becomes a cluster-cache hit instead of a dirty-remote")
    print("miss — the load column collapses at cluster size 2.")


if __name__ == "__main__":
    main()
