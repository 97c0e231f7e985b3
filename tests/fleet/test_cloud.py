"""The shared cloud tier: WAN attachment, egress metering, pricing,
and the optimizer's cloud bias."""

from __future__ import annotations

import pytest

from repro.core import VideoPipe
from repro.errors import ConfigError, DeviceError, NetworkError
from repro.fleet import Fleet, FleetConfig, run_fleet
from repro.fleet.workload import home_pipeline_config
from repro.net import WAN_METRO, WAN_REGIONAL
from repro.pipeline import CloudPricing, CostModel, OptimizerConfig


def _cloud_cfg(**overrides) -> FleetConfig:
    defaults = dict(homes=6, seed=7, duration_s=1.0, tail_s=0.5, cloud=True)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def test_add_cloud_device_attaches_behind_wan():
    home = VideoPipe(seed=3)
    home.add_device("phone")
    home.add_cloud_device("cloud")
    assert home.topology.is_cloud("cloud")
    assert not home.topology.is_cloud("phone")
    assert home.topology.cloud_devices() == ["cloud"]
    assert home.topology.wan_egress_bytes() == 0  # metered, nothing sent yet
    with pytest.raises(DeviceError):
        home.add_cloud_device("cloud")
    with pytest.raises(NetworkError):
        home.topology.add_cloud("phone")  # already attached as an edge device


def test_cloud_fleet_reports_egress_and_cost():
    edge = run_fleet(_cloud_cfg(cloud=False))
    cloud = run_fleet(_cloud_cfg())
    assert cloud.cloud_calls > 0
    assert cloud.cloud_egress_bytes > 0
    assert edge.cloud_calls == 0 and edge.cloud_egress_bytes == 0
    # cloud compute and egress are billed on top of the edge amortization
    assert cloud.cost_per_home > edge.cost_per_home > 0
    # offloading the heavy stages over a metro WAN beats weak local hubs
    assert cloud.latency.mean < edge.latency.mean
    data = cloud.as_dict()
    assert data["cloud_egress_bytes"] == cloud.cloud_egress_bytes
    assert data["cloud_calls"] == cloud.cloud_calls
    assert data["cost_per_home"] == pytest.approx(cloud.cost_per_home)


def test_cloud_report_totals_match_topology_meters():
    fleet = Fleet(_cloud_cfg())
    fleet.run()
    report = fleet.report()
    metered = sum(h.topology.wan_egress_bytes() for h in fleet.homes)
    assert report.cloud_egress_bytes == metered
    assert report.cloud_egress_bytes == sum(
        r.cloud_egress_bytes for r in report.results
    )


def test_regional_wan_makes_cloud_less_attractive():
    metro = run_fleet(_cloud_cfg())
    regional = run_fleet(_cloud_cfg(wan=WAN_REGIONAL))
    assert metro.cloud_calls > 0
    # a 20 ms uplink prices more calls back onto the home's own devices
    # than the 5 ms metro edge does
    assert regional.cloud_calls <= metro.cloud_calls
    assert WAN_REGIONAL.latency_s > WAN_METRO.latency_s


def test_cloud_fleet_is_deterministic_and_shardable():
    first = run_fleet(_cloud_cfg())
    second = run_fleet(_cloud_cfg())
    assert first.as_dict() == second.as_dict()
    sharded = run_fleet(_cloud_cfg(shards=2))
    plain, merged = first.as_dict(), sharded.as_dict()
    for key in ("shards", "shard_homes"):
        plain.pop(key), merged.pop(key)
    assert plain == merged


def test_cloud_pricing_math():
    pricing = CloudPricing(
        edge_device_per_hour=0.01, cloud_cpu_per_hour=0.36, egress_per_gb=0.1
    )
    # 3 edge devices, 2 compute-seconds and 1e8 bytes over a 60 s window:
    # scale 60x to the hour -> 120 cpu-s = 1/30 cpu-h, 6 GB egress
    cost = pricing.home_hourly_cost(
        edge_devices=3, cloud_compute_s=2.0, egress_bytes=int(1e8),
        window_s=60.0,
    )
    assert cost == pytest.approx(0.03 + 0.36 / 30.0 + 0.6)
    assert pricing.home_hourly_cost(3, 0.0, 0, 60.0) == pytest.approx(0.03)
    with pytest.raises(ConfigError):
        pricing.home_hourly_cost(3, 1.0, 0, 0.0)


def test_custom_pricing_flows_into_report():
    free_cloud = CloudPricing(
        edge_device_per_hour=0.0, cloud_cpu_per_hour=0.0, egress_per_gb=0.0
    )
    report = run_fleet(_cloud_cfg(pricing=free_cloud))
    assert report.cloud_calls > 0
    assert report.cost_per_home == 0.0


def test_cloud_bias_penalizes_cloud_routed_calls():
    with pytest.raises(ConfigError):
        OptimizerConfig(cloud_bias_s=-0.001)
    fleet = Fleet(_cloud_cfg(homes=1))
    home = fleet.homes[0]
    config = home_pipeline_config("bias_probe", "phone")
    on_cloud = {
        "camera": "phone", "detect": "cloud", "classify": "cloud",
        "alert": "phone", "sink": "phone",
    }
    plain = CostModel(
        config, home.devices, home.registry, home.topology,
        optimizer=OptimizerConfig(),
    )
    biased = CostModel(
        config, home.devices, home.registry, home.topology,
        optimizer=OptimizerConfig(cloud_bias_s=0.004),
    )
    assert plain.cloud_penalty(on_cloud) == 0.0
    # detect and classify resolve to cloud-hosted replicas; alert's only
    # host is the phone, so exactly two calls carry the bias
    assert biased.cloud_penalty(on_cloud) == pytest.approx(0.008)
    assert biased.score(on_cloud).total == pytest.approx(
        plain.score(on_cloud).total + 0.008
    )
    # the bias follows call *routing*, not module placement: a module on an
    # edge device still carries it when the cheapest replica is the cloud
    # one (that is where the cost-aware balancer will send its calls)
    all_edge = dict(on_cloud, detect="phone", classify="phone")
    routed_to_cloud = sum(
        1 for service in ("fleet_detector", "fleet_classifier")
        if home.topology.is_cloud(
            biased._serving_host(service, "phone")[0].device.name
        )
    )
    assert biased.cloud_penalty(all_edge) == pytest.approx(
        0.004 * routed_to_cloud
    )
