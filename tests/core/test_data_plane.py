"""The enable_data_plane facade: arenas and pools, current and future."""

from repro import DataPlaneConfig, VideoPipe
from repro.services import FunctionService


def echo(name="echo"):
    return FunctionService(name, lambda payload, ctx: payload,
                           reference_cost_s=0.010)


class TestConfig:
    def test_defaults_turn_both_features_on(self):
        home = VideoPipe.paper_testbed(seed=1)
        assert home.enable_data_plane().replica_pool
        assert home.device("desktop").arena is not None
        assert home.device("desktop").replica_pool is not None


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

    def test_halves_compose(self):
        home = VideoPipe.paper_testbed(seed=1)
        home.enable_data_plane(DataPlaneConfig(replica_pool=False))
        arena = home.device("desktop").arena
        assert arena is not None
        assert home.device("desktop").replica_pool is None
        home.enable_data_plane(DataPlaneConfig(replica_pool=True))
        assert home.device("desktop").arena is arena  # arena kept
        assert home.device("desktop").replica_pool is not None

    def test_audit_watches_arenas_both_orders(self):
        first = VideoPipe.paper_testbed(seed=1)
        first.enable_audit()
        first.enable_data_plane()
        assert first.device("desktop").arena.observer.auditor is first.auditor
        second = VideoPipe.paper_testbed(seed=1)
        second.enable_data_plane()
        second.enable_audit()
        assert second.device("desktop").arena.observer.auditor is second.auditor

    def test_stats_aggregate_across_devices(self):
        home = VideoPipe.paper_testbed(seed=1)
        stats = home.data_plane_stats()
        assert stats["arena"]["allocs"] == 0  # all zeros while off
        home.enable_data_plane()
        stats = home.data_plane_stats()
        assert set(stats["arena"]["by_device"]) == set(home.devices)
        assert stats["pool"]["grants"] == 0
