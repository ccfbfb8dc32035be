"""Interconnect subsystem: topology, hop-based latency, and contention.

The paper's §3.1 methodology charges every miss a flat Table 1 latency and
explicitly does not model network or directory contention.  This package
turns that flat table into one provider among several:

* :mod:`repro.network.topology` — the 2D mesh: cluster id ->
  coordinates, hop counts, and routed links;
* :mod:`repro.network.latency` — :class:`MeshLatency` (a fixed cost per
  hop, directory occupancy, Table-1-calibrated base costs); the
  flat-table provider is :class:`~repro.core.config.LatencyModel` itself;
* :mod:`repro.network.contention` — per-link and per-directory M/D/1
  queueing driven by the simulated miss stream plus a synthetic
  background load.

Select a model via :class:`repro.core.config.NetworkConfig` (the
``network`` field of :class:`~repro.core.config.MachineConfig`); run the
contention-sensitivity sweep with
:meth:`repro.core.study.ClusteringStudy.contention_sweep` or the
``repro-clustering network`` CLI subcommand.
"""

from .contention import ContentionModel
from .latency import MeshLatency
from .topology import MeshTopology

__all__ = ["ContentionModel", "MeshTopology", "MeshLatency"]
