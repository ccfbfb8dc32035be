"""Unit tests for MachineConfig and the Table-1 latency model."""

import pytest

from repro.core.config import (PAPER_CACHE_SIZES_KB, PAPER_CLUSTER_SIZES,
                               PAPER_NETWORK_LOADS, LatencyModel,
                               MachineConfig, NetworkConfig)
from repro.network.latency import HOP_CYCLES


class TestLatencyModelTable1:
    """The latency model must reproduce the paper's Table 1 verbatim."""

    lm = LatencyModel

    def test_hit_latencies(self):
        assert self.lm.hit_cycles(1) == 1
        assert self.lm.hit_cycles(2) == 2
        assert self.lm.hit_cycles(4) == 3
        assert self.lm.hit_cycles(8) == 3

    def test_hit_latency_beyond_table(self):
        assert self.lm.hit_cycles(64) == 3
        # between rows: the largest tabulated size not above it
        assert self.lm.hit_cycles(3) == 2
        assert self.lm.hit_cycles(7) == 3

    def test_hit_latency_invalid(self):
        with pytest.raises(ValueError):
            self.lm.hit_cycles(0)

    def test_miss_local_clean_30(self):
        assert self.lm.miss_cycles(requester=0, home=0, dirty_owner=None,
                                   now=0) == 30

    def test_miss_remote_clean_100(self):
        assert self.lm.miss_cycles(requester=0, home=1, dirty_owner=None,
                                   now=0) == 100

    def test_miss_local_home_dirty_remote_100(self):
        assert self.lm.miss_cycles(requester=0, home=0, dirty_owner=2,
                                   now=0) == 100

    def test_miss_remote_home_dirty_at_home_100(self):
        assert self.lm.miss_cycles(requester=0, home=1, dirty_owner=1,
                                   now=0) == 100

    def test_miss_third_party_150(self):
        assert self.lm.miss_cycles(requester=0, home=1, dirty_owner=2,
                                   now=0) == 150

    def test_requester_cannot_be_dirty_owner(self):
        with pytest.raises(ValueError):
            self.lm.miss_cycles(requester=0, home=1, dirty_owner=0, now=0)


class TestMachineConfig:
    def test_paper_defaults(self):
        cfg = MachineConfig()
        assert cfg.n_processors == 64
        assert cfg.line_size == 64
        assert cfg.cache_kb_per_processor is None

    def test_paper_constants(self):
        assert PAPER_CLUSTER_SIZES == (1, 2, 4, 8)
        assert PAPER_CACHE_SIZES_KB == (4, 16, 32, None)

    def test_n_clusters(self):
        assert MachineConfig(cluster_size=8).n_clusters == 8
        assert MachineConfig(cluster_size=1).n_clusters == 64

    def test_cluster_of_contiguous(self):
        cfg = MachineConfig(cluster_size=4)
        assert cfg.cluster_of(0) == 0
        assert cfg.cluster_of(3) == 0
        assert cfg.cluster_of(4) == 1
        assert cfg.cluster_of(63) == 15

    def test_processors_of(self):
        cfg = MachineConfig(cluster_size=4)
        assert list(cfg.processors_of(1)) == [4, 5, 6, 7]

    def test_cluster_cache_lines_scales_with_cluster(self):
        cfg = MachineConfig(cluster_size=4, cache_kb_per_processor=4)
        assert cfg.cluster_cache_lines == 4 * 1024 * 4 // 64

    def test_infinite_cache(self):
        assert MachineConfig().cluster_cache_lines is None

    def test_tiny_cache_at_least_one_line(self):
        cfg = MachineConfig(cluster_size=1,
                            cache_kb_per_processor=0.01)
        assert cfg.cluster_cache_lines == 1

    def test_cluster_size_must_divide(self):
        with pytest.raises(ValueError):
            MachineConfig(n_processors=64, cluster_size=3)

    def test_with_clusters_returns_new(self):
        cfg = MachineConfig()
        c2 = cfg.with_clusters(2)
        assert cfg.cluster_size == 1
        assert c2.cluster_size == 2

    def test_with_cache_kb(self):
        cfg = MachineConfig().with_cache_kb(16)
        assert cfg.cache_kb_per_processor == 16

    def test_with_associativity(self):
        cfg = MachineConfig(cache_kb_per_processor=4).with_associativity(2)
        assert cfg.associativity == 2

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            MachineConfig(n_processors=0)
        with pytest.raises(ValueError):
            MachineConfig(cache_kb_per_processor=-1)
        with pytest.raises(ValueError):
            MachineConfig(associativity=0)

    @pytest.mark.parametrize("kb", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_cache_size_is_refused(self, kb):
        """NaN compares false with everything, so it passed a ``<= 0``
        check and only failed later, converting the capacity to lines."""
        with pytest.raises(ValueError, match="positive and finite"):
            MachineConfig(cache_kb_per_processor=kb)

    def test_describe_mentions_shape(self):
        s = MachineConfig(cluster_size=4, cache_kb_per_processor=4).describe()
        assert "64p" in s and "4/cluster" in s and "4KB" in s

    def test_out_of_range_processor(self):
        with pytest.raises(ValueError):
            MachineConfig().cluster_of(64)
        with pytest.raises(ValueError):
            MachineConfig().processors_of(64)


class TestNetworkConfig:
    def test_defaults_are_flat_table(self):
        net = NetworkConfig()
        assert net.provider == "table"
        assert net.background_load == 0.0
        assert net.contention is True

    def test_paper_loads(self):
        assert PAPER_NETWORK_LOADS == (0.0, 0.3, 0.6, 0.8)

    def test_hop_cycles(self):
        # one wire cycle plus one router cycle, for every mesh
        assert HOP_CYCLES == 2

    def test_to_dict_lists_every_knob(self):
        d = NetworkConfig().to_dict()
        assert set(d) == {"provider", "directory_cycles",
                          "background_load", "contention"}

    @pytest.mark.parametrize("kwargs", [
        {"provider": "torus"},
        {"directory_cycles": 0},
        {"directory_cycles": -6},
        {"background_load": -0.1},
        {"background_load": 1.0},
        {"background_load": float("nan")},
        {"background_load": float("inf")},
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    def test_machine_config_with_network(self):
        net = NetworkConfig(provider="mesh")
        cfg = MachineConfig().with_network(net)
        assert cfg.network == net
        assert MachineConfig().network.provider == "table"
        assert cfg.to_dict()["network"] == net.to_dict()
