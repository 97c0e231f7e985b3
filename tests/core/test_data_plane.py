"""The enable_data_plane facade: arenas and pools, current and future."""

import pytest

from repro import DataPlaneConfig, VideoPipe
from repro.errors import ConfigError
from repro.services import FunctionService


def echo(name="echo"):
    return FunctionService(name, lambda payload, ctx: payload,
                           reference_cost_s=0.010)


class TestConfig:
    def test_defaults_turn_both_features_on(self):
        config = DataPlaneConfig()
        assert config.arena and config.replica_pool
        assert config.any_enabled

    def test_validation(self):
        with pytest.raises(ConfigError):
            DataPlaneConfig(arena_capacity_bytes=0)
        with pytest.raises(ConfigError):
            DataPlaneConfig(pool_slots=0)


class TestFacade:
    def test_applies_to_current_and_future_devices(self):
        home = VideoPipe.paper_testbed(seed=1)
        home.enable_data_plane()
        for device in home.devices.values():
            assert device.arena is not None
            assert device.replica_pool is not None
        late = home.add_device("laptop")
        assert late.arena is not None
        assert late.replica_pool is not None

    def test_future_hosts_join_the_device_pool(self):
        home = VideoPipe.paper_testbed(seed=1)
        home.enable_data_plane()
        host = home.deploy_service(echo(), "desktop")
        assert host.pool is home.device("desktop").replica_pool

    def test_existing_hosts_join_on_enable(self):
        home = VideoPipe.paper_testbed(seed=1)
        host = home.deploy_service(echo(), "desktop")
        home.enable_data_plane()
        assert host.pool is home.device("desktop").replica_pool

    def test_pool_sized_by_config(self):
        home = VideoPipe.paper_testbed(seed=1)
        home.enable_data_plane(DataPlaneConfig(pool_slots=3))
        assert home.device("desktop").replica_pool.base_slots == 3

    def test_halves_compose(self):
        home = VideoPipe.paper_testbed(seed=1)
        home.enable_data_plane(DataPlaneConfig(arena=True, replica_pool=False))
        arena = home.device("desktop").arena
        assert arena is not None
        assert home.device("desktop").replica_pool is None
        home.enable_data_plane(DataPlaneConfig(arena=True, replica_pool=True))
        assert home.device("desktop").arena is arena  # arena kept
        assert home.device("desktop").replica_pool is not None

    def test_all_off_config_is_a_noop(self):
        home = VideoPipe.paper_testbed(seed=1)
        home.enable_data_plane(DataPlaneConfig(arena=False, replica_pool=False))
        assert home.device("desktop").arena is None
        assert home.device("desktop").replica_pool is None

    def test_audit_watches_arenas_both_orders(self):
        first = VideoPipe.paper_testbed(seed=1)
        first.enable_audit()
        first.enable_data_plane()
        assert first.device("desktop").arena.auditor is first.auditor
        second = VideoPipe.paper_testbed(seed=1)
        second.enable_data_plane()
        second.enable_audit()
        assert second.device("desktop").arena.auditor is second.auditor

    def test_stats_aggregate_across_devices(self):
        home = VideoPipe.paper_testbed(seed=1)
        stats = home.data_plane_stats()
        assert stats["arena"]["allocs"] == 0  # all zeros while off
        home.enable_data_plane()
        stats = home.data_plane_stats()
        assert set(stats["arena"]["by_device"]) == set(home.devices)
        assert stats["pool"]["grants"] == 0
