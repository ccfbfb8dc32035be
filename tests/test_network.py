"""The interconnect subsystem: topology, latency providers, contention.

The load-bearing guarantees:

* the default flat-table provider is the Table 1 model itself (golden
  fixtures must not move under it) and records no network counters;
* :class:`MeshLatency` is Table-1 calibrated — the *mean* zero-load
  latency of every transaction shape equals the Table 1 row for every
  requesting node — and an unloaded mesh run lands within 2% of the
  flat-table execution time (the ISSUE's acceptance band);
* queueing delay grows with background load, and larger clusters degrade
  more slowly than 1-per-cluster because they send fewer, shorter-routed
  messages;
* network counters ride in :class:`RunResult` (and its JSON) only when a
  network model actually ran.
"""

import statistics

import pytest

from repro.core.config import (LatencyModel, MachineConfig, NetworkConfig)
from repro.core.metrics import NetworkStats, RunResult
from repro.core.study import ClusteringStudy
from repro.memory import make_memory_system
from repro.network import latency
from repro.network.contention import (UTILIZATION_CAP, ContentionModel)
from repro.network.latency import MeshLatency
from repro.network.topology import MeshTopology, mesh_dims
from repro.runtime import RunRequest

MESH_OFF = NetworkConfig(provider="mesh", contention=False)
OCEAN_KW = {"n": 16, "n_vcycles": 1}


# ------------------------------------------------------------------ topology


class TestMeshTopology:
    @pytest.mark.parametrize("n,dims", [(1, (1, 1)), (2, (1, 2)),
                                        (8, (2, 4)), (16, (4, 4)),
                                        (32, (4, 8)), (64, (8, 8))])
    def test_near_square_dims(self, n, dims):
        assert mesh_dims(n) == dims

    def test_coords_round_trip(self):
        topo = MeshTopology(32)
        for node in range(32):
            assert topo.node_at(*topo.coords(node)) == node

    def test_hops_metric(self):
        topo = MeshTopology(16)
        for a in range(16):
            assert topo.hops(a, a) == 0
            for b in range(16):
                assert topo.hops(a, b) == topo.hops(b, a)
                for c in range(16):
                    assert (topo.hops(a, c)
                            <= topo.hops(a, b) + topo.hops(b, c))

    def test_corner_to_corner(self):
        topo = MeshTopology(64)  # 8x8
        assert topo.hops(0, 63) == 14

    def test_route_length_equals_hops(self):
        topo = MeshTopology(32)
        for a in range(32):
            for b in range(32):
                route = topo.route(a, b)
                assert len(route) == topo.hops(a, b)
                assert all(0 <= link < topo.n_links for link in route)

    def test_routes_are_link_disjoint_per_step(self):
        # dimension-order routing never revisits a link
        topo = MeshTopology(64)
        route = topo.route(0, 63)
        assert len(set(route)) == len(route)

    def test_single_node_mesh(self):
        topo = MeshTopology(1)
        assert topo.hops(0, 0) == 0
        assert topo.route(0, 0) == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MeshTopology(4).coords(4)
        with pytest.raises(ValueError):
            MeshTopology(4).node_at(5, 0)


# ------------------------------------------------------------ TableLatency


class TestTableLatency:
    def test_same_error_contract(self):
        with pytest.raises(ValueError):
            LatencyModel.miss_cycles(1, 0, 1, 0)

    def test_no_stats(self):
        memory = make_memory_system(MachineConfig(n_processors=8))
        assert memory.network_stats() is None


# ------------------------------------------------------------- MeshLatency


def mesh_provider(n_processors=64, cluster_size=1, **net_kwargs):
    net_kwargs.setdefault("provider", "mesh")
    return MeshLatency(n_processors // cluster_size,
                       NetworkConfig(**net_kwargs))


#: the cases name the cluster count and the mesh they run on
MESH_IDS = ["4-mesh", "8-mesh", "16-mesh"]


class TestMeshCalibration:
    """Zero-load latencies match Table 1: the two-leg shapes exactly per
    (requester, home) pair, the three-leg dirty shape in the mean over
    uniformly distributed third-party owners."""

    @pytest.mark.parametrize("n", [4, 8, 16], ids=MESH_IDS)
    def test_two_leg_shapes_exact(self, n):
        provider = mesh_provider(n_processors=n, contention=False)
        table = LatencyModel
        for r in range(n):
            assert provider.miss_cycles(r, r, None, 0) == table.LOCAL_CLEAN
            for x in range(n):
                if x == r:
                    continue
                assert provider.miss_cycles(r, x, None, 0) \
                    == table.REMOTE_CLEAN
                assert provider.miss_cycles(r, r, x, 0) == \
                    table.LOCAL_DIRTY_REMOTE

    @pytest.mark.parametrize("n", [4, 8, 16], ids=MESH_IDS)
    def test_three_leg_mean_matches_table(self, n):
        provider = mesh_provider(n_processors=n, contention=False)
        table = LatencyModel
        for r in range(n):
            for h in range(n):
                if h == r:
                    continue
                remote_dirty = statistics.mean(
                    provider.miss_cycles(r, h, o, 0)
                    for o in range(n) if o not in (r, h))
                # per-transaction rounding moves the mean by < 0.5 cycles
                assert remote_dirty == pytest.approx(
                    table.REMOTE_DIRTY_THIRD_PARTY, abs=0.5)

    def test_forward_hop_mean_closed_form_against_brute_force(self):
        # the three-leg calibration uses a row-sum closed form for
        # E_o[hops(h,o) + hops(o,r)]; check it against the O(n) definition
        for n in (4, 6, 12):
            topo = MeshTopology(n)
            provider = mesh_provider(n_processors=n, contention=False)
            for r in range(n):
                for h in range(n):
                    if h == r:
                        continue
                    brute = statistics.mean(
                        topo.hops(h, o) + topo.hops(o, r)
                        for o in range(n) if o not in (r, h))
                    assert provider._mean_forward_hops(r, h) == \
                        pytest.approx(brute)

    def test_dirty_at_home_priced_as_remote_clean(self):
        provider = mesh_provider(n_processors=16, contention=False)
        assert provider.miss_cycles(3, 7, 7, 0) == provider.miss_cycles(3, 7,
                                                                     None, 0)

    def test_requester_cannot_own(self):
        with pytest.raises(ValueError):
            mesh_provider(n_processors=8).miss_cycles(2, 0, 2, 0)

    def test_single_cluster_machine(self):
        provider = mesh_provider(n_processors=8, cluster_size=8)
        assert provider.miss_cycles(0, 0, None, 0) \
            == LatencyModel.LOCAL_CLEAN

    def test_latency_clamped_positive(self, monkeypatch):
        # an absurd hop cost (standing in for a mesh thousands of clusters
        # wide) makes the three-leg base deeply negative for owners near
        # the requester; latencies must still be >= 1
        monkeypatch.setattr(latency, "HOP_CYCLES", 80)
        provider = mesh_provider(n_processors=16, contention=False)
        lows = [provider.miss_cycles(r, h, o, 0)
                for r in range(16) for h in range(16) if h != r
                for o in range(16) if o not in (r, h)]
        assert min(lows) >= 1

    def test_stats_accumulate(self):
        provider = mesh_provider(n_processors=16, contention=False)
        provider.miss_cycles(0, 5, None, 0)
        provider.miss_cycles(0, 0, None, 0)
        stats = provider.stats()
        assert stats.messages == 2
        assert stats.hops == 2 * MeshTopology(16).hops(0, 5)


# ---------------------------------------------------------------- contention


class TestContentionModel:
    def make(self, background=0.0):
        stats = NetworkStats()
        return ContentionModel(n_links=8, n_directories=2, link_service=2,
                               directory_service=6,
                               background_load=background, stats=stats), stats

    def test_cold_network_adds_no_delay(self):
        model, stats = self.make()
        assert model.transaction_delay((0, 1, 2), home=0, now=100) == 0.0
        assert stats.link_busy_cycles == 6
        assert stats.directory_busy_cycles == 6

    def test_self_induced_queueing(self):
        model, _ = self.make()
        model.transaction_delay((0,), home=0, now=10)
        assert model.transaction_delay((0,), home=0, now=10) > 0.0

    def test_background_load_monotone(self):
        delays = []
        for load in (0.0, 0.3, 0.6, 0.9):
            model, _ = self.make(load)
            delays.append(model.transaction_delay((0, 1), home=1, now=50))
        assert delays == sorted(delays)
        assert delays[-1] > delays[0]

    def test_utilization_capped(self):
        model, stats = self.make()  # zero background
        for _ in range(10_000):     # busy >> warmup floor: would read rho=4
            model.transaction_delay((0,), home=0, now=1)
        assert stats.peak_link_utilization == UTILIZATION_CAP

    def test_startup_burst_damped_by_warmup_floor(self):
        # a handful of early transactions must not read as saturation
        model, stats = self.make()
        for _ in range(10):
            model.transaction_delay((0,), home=0, now=5)
        assert stats.peak_link_utilization < 0.01

    def test_peak_utilization_recorded(self):
        model, stats = self.make(0.5)
        model.transaction_delay((0,), home=0, now=100)
        assert stats.peak_link_utilization >= 0.5


# ------------------------------------------------- end-to-end equivalence


def run_point(cluster_size, network=None, app="ocean", kwargs=OCEAN_KW,
              n_processors=8):
    config = MachineConfig(n_processors=n_processors,
                           cluster_size=cluster_size,
                           network=network or NetworkConfig())
    from repro.apps.registry import build_app

    return build_app(app, config, **kwargs).run()


class TestZeroLoadEquivalence:
    """Acceptance band: unloaded mesh within 2% of the flat table."""

    @pytest.mark.parametrize("app,kwargs", [
        ("ocean", {"n": 32, "n_vcycles": 1}),
        ("radix", {"n_keys": 2048, "radix": 32}),
    ])
    @pytest.mark.parametrize("cluster_size", [1, 2, 4])
    def test_within_two_percent(self, app, kwargs, cluster_size):
        table = run_point(cluster_size, app=app, kwargs=kwargs)
        mesh = run_point(cluster_size,
                         network=NetworkConfig(provider="mesh"),
                         app=app, kwargs=kwargs)
        deviation = abs(mesh.execution_time - table.execution_time) \
            / table.execution_time
        assert deviation < 0.02, \
            f"{app} @ {cluster_size}/cluster deviates {deviation:.2%}"

    def test_table_provider_unchanged_by_network_block(self):
        # golden guarantee: default provider ignores mesh-only knobs
        plain = run_point(2)
        tweaked = run_point(2, network=NetworkConfig(directory_cycles=9,
                                                     background_load=0.5))
        assert plain.to_json() == tweaked.to_json()


class TestLoadDegradation:
    """Larger clusters degrade more slowly under network load."""

    def test_slowdown_ordering(self):
        slowdowns = {}
        for c in (1, 4):
            base = run_point(c, NetworkConfig(provider="mesh"))
            loaded = run_point(c, NetworkConfig(provider="mesh",
                                                background_load=0.8))
            slowdowns[c] = loaded.execution_time / base.execution_time
        assert slowdowns[1] > slowdowns[4] > 1.0

    def test_loaded_run_reports_queueing(self):
        result = run_point(1, NetworkConfig(provider="mesh",
                                            background_load=0.8))
        assert result.network is not None
        assert result.network.queue_delay_cycles > 0
        assert result.network.peak_link_utilization >= 0.8


# ------------------------------------------------------- results plumbing


class TestResultPlumbing:
    def test_table_run_has_no_network_stats(self):
        result = run_point(2)
        assert result.network is None
        assert "network" not in result.to_dict()

    def test_mesh_run_round_trips_json(self):
        result = run_point(2, NetworkConfig(provider="mesh",
                                            background_load=0.3))
        assert result.network is not None
        assert result.network.messages > 0
        back = RunResult.from_json(result.to_json())
        assert back == result
        assert back.to_json() == result.to_json()

    def test_malformed_network_stats_rejected(self):
        with pytest.raises(ValueError):
            NetworkStats.from_dict({"messages": 1})

    def test_snoopy_memory_uses_provider(self):
        from repro.apps.registry import build_app
        from repro.memory.snoopy import SnoopyClusterMemorySystem
        from repro.sim.engine import Engine

        config = MachineConfig(n_processors=8, cluster_size=2,
                               network=NetworkConfig(provider="mesh"))
        app = build_app("ocean", config, **OCEAN_KW)
        app.ensure_setup()
        mem = SnoopyClusterMemorySystem(config, app.allocator)
        result = Engine(config, mem).run(app.program)
        assert result.network is not None
        assert result.network.messages > 0

    def test_summary_mentions_network(self):
        from repro.sim.stats import summarize

        result = run_point(2, NetworkConfig(provider="mesh"))
        assert "network" in summarize(result).format()


# -------------------------------------------------------- sweep plumbing


class TestContentionSweep:
    def test_point_spec_network_override(self):
        net = NetworkConfig(provider="mesh", background_load=0.5)
        spec = RunRequest.make("ocean", 2, None, OCEAN_KW, network=net)
        config = spec.config_for(MachineConfig(n_processors=8))
        assert config.network == net
        assert "mesh net @ load 0.5" in spec.describe()

    def test_spec_without_network_inherits_base(self):
        spec = RunRequest.make("ocean", 2, None)
        base = MachineConfig(n_processors=8,
                             network=NetworkConfig(provider="mesh"))
        assert spec.config_for(base).network.provider == "mesh"

    def test_contention_sweep_grid_and_figure(self):
        from repro.analysis.figures import (contention_slowdown,
                                            figure_from_contention_sweep,
                                            render_slowdown)

        study = ClusteringStudy("ocean", MachineConfig(n_processors=8),
                                OCEAN_KW)
        sweep = study.contention_sweep(loads=(0.0, 0.6),
                                       cluster_sizes=(1, 2))
        assert set(sweep) == {(0.0, 1), (0.0, 2), (0.6, 1), (0.6, 2)}
        assert all(p.result.network is not None for p in sweep.values())
        # load 0 anchors with contention off (pure calibrated hop model);
        # loaded points charge queueing
        assert sweep[(0.0, 1)].result.network.queue_delay_cycles == 0
        assert sweep[(0.6, 1)].result.network.queue_delay_cycles > 0

        fig = figure_from_contention_sweep("contention", sweep)
        assert [g.label for g in fig.groups] == ["0", "0.6"]
        for group in fig.groups:
            assert group.bars[0].label == "1p"
            assert group.bars[0].total == pytest.approx(100.0)

        slow = contention_slowdown(sweep)
        assert slow[1][0.0] == pytest.approx(1.0)
        assert slow[1][0.6] > 1.0
        text = render_slowdown(slow, "slowdown")
        assert "load 0.6" in text and "1p" in text
