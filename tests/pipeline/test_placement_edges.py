"""Error paths and degenerate homes for placement and the optimizer."""

from __future__ import annotations

import pytest

from repro.core import VideoPipe
from repro.devices.catalog import make_spec
from repro.errors import ConfigError, PlacementError
from repro.fleet import STRATEGIES
from repro.pipeline import OPTIMIZED, OptimizerConfig, plan_optimized
from repro.pipeline.config import ModuleConfig, PipelineConfig
from repro.pipeline.placement import PlacementPlan, plan_colocated
from repro.services.base import FunctionService


def _config(pins: dict[str, str] | None = None,
            services: dict[str, list[str]] | None = None) -> PipelineConfig:
    pins = pins or {}
    services = services or {}
    return PipelineConfig(name="edge", modules=[
        ModuleConfig(name="a", include="./FleetStageModule.js",
                     next_modules=["b"], device=pins.get("a"),
                     services=services.get("a", [])),
        ModuleConfig(name="b", include="./FleetSinkModule.js",
                     device=pins.get("b"), services=services.get("b", [])),
    ])


@pytest.fixture
def home():
    home = VideoPipe(seed=3)
    home.add_device("phone")
    home.add_device("desktop")
    return home


# -- _check_device / device_of --------------------------------------------------

def test_unknown_default_device_message(home):
    with pytest.raises(PlacementError) as err:
        plan_colocated(_config(), home.devices, home.registry, "nas")
    assert "default device: device 'nas' is not in the home" in str(err.value)
    assert "'desktop'" in str(err.value) and "'phone'" in str(err.value)


def test_unknown_pin_message(home):
    with pytest.raises(PlacementError) as err:
        plan_colocated(_config(pins={"b": "toaster"}),
                       home.devices, home.registry, "phone")
    assert "module 'b' pin: device 'toaster' is not in the home" in str(err.value)


def test_device_of_unplaced_module_raises():
    plan = PlacementPlan(pipeline="edge", strategy="colocated",
                         assignments={"a": "phone"})
    assert plan.device_of("a") == "phone"
    with pytest.raises(PlacementError) as err:
        plan.device_of("ghost")
    assert "plan for 'edge' does not place module 'ghost'" in str(err.value)


# -- plan_optimized degenerate homes -------------------------------------------

def test_optimized_single_device_home():
    home = VideoPipe(seed=3)
    home.add_device("phone")
    plan = plan_optimized(_config(), home.devices, home.registry,
                          home.topology, "phone")
    # one device, nothing to search: the co-located fallback, everything on it
    assert plan.strategy == "colocated"
    assert plan.assignments == {"a": "phone", "b": "phone"}


def test_optimized_service_hosted_nowhere(home):
    with pytest.raises(PlacementError) as err:
        plan_optimized(_config(services={"a": ["ghost_svc"]}),
                       home.devices, home.registry, home.topology, "phone")
    assert ("module 'a' needs service 'ghost_svc', which is hosted nowhere"
            in str(err.value))


def test_optimized_no_container_capable_device():
    """A home of sensors only: container services cannot exist, so any
    config needing one is rejected, while a service-free pipeline still
    places (onto the only hardware there is)."""
    home = VideoPipe(seed=3)
    home.add_device("watch")
    home.add_device(make_spec("watch", "watch2"))
    assert not any(d.spec.supports_containers for d in home.devices.values())
    with pytest.raises(PlacementError):
        plan_optimized(_config(services={"a": ["detector"]}),
                       home.devices, home.registry, home.topology, "watch")
    plan = plan_optimized(_config(), home.devices, home.registry,
                          home.topology, "watch")
    assert set(plan.assignments.values()) <= {"watch", "watch2"}


def test_optimized_unknown_default_and_pin(home):
    with pytest.raises(PlacementError):
        plan_optimized(_config(), home.devices, home.registry,
                       home.topology, "nas")
    with pytest.raises(PlacementError):
        plan_optimized(_config(pins={"a": "nas"}), home.devices,
                       home.registry, home.topology, "phone")


def test_optimized_respects_pins(home):
    home.deploy_service(
        FunctionService("detector", lambda p, c: {}, reference_cost_s=0.01),
        "desktop",
    )
    plan = plan_optimized(
        _config(pins={"a": "phone", "b": "phone"},
                services={"a": ["detector"]}),
        home.devices, home.registry, home.topology, "phone",
    )
    assert plan.assignments == {"a": "phone", "b": "phone"}


# -- OptimizerConfig validation -------------------------------------------------

# Explicit ids keep each case's id stable when a case before it is removed
# (bad3, bad4 and bad7 checked fields that are now constants).
@pytest.mark.parametrize("bad", [
    {"edge_bytes": -1},
    {"fps": 0.0},
    {"fps": -2.0},
    pytest.param({"module_footprint_mb": -1}, id="bad5"),
    pytest.param({"max_candidates": 0}, id="bad6"),
    pytest.param({"replan_interval_s": 0.0}, id="bad8"),
    pytest.param({"replan_threshold_frac": -0.01}, id="bad9"),
    pytest.param({"replan_threshold_frac": 1.0}, id="bad10"),
])
def test_optimizer_config_rejects(bad):
    with pytest.raises(ConfigError):
        OptimizerConfig(**bad)


def test_optimizer_config_defaults_are_valid():
    config = OptimizerConfig()
    assert config.fps > 0
    assert 0 <= config.replan_threshold_frac < 1


def test_videopipe_plan_unknown_strategy(home):
    with pytest.raises(ConfigError):
        home.plan(_config(), strategy="psychic")


def test_planning_a_home_with_no_devices_is_a_config_error():
    """It used to be a bare ``StopIteration`` from picking the default
    device, for every strategy."""
    home = VideoPipe(seed=3)
    for strategy in STRATEGIES:
        with pytest.raises(ConfigError, match="add a device before planning"):
            home.plan(_config(), strategy=strategy)
        with pytest.raises(ConfigError, match="add a device before planning"):
            home.deploy_pipeline(_config(), strategy=strategy)


def test_videopipe_plan_optimized_facade(home):
    plan = home.plan(_config(), strategy=OPTIMIZED, default_device="phone")
    assert set(plan.assignments) == {"a", "b"}
