"""Unit tests for placement planning."""

import pytest

from repro.core import VideoPipe
from repro.errors import PlacementError
from repro.pipeline import (
    ModuleConfig,
    PipelineConfig,
    plan_colocated,
    plan_single_host,
)
from repro.services import FunctionService


@pytest.fixture
def home():
    home = VideoPipe.paper_testbed(seed=0)
    home.deploy_service(FunctionService("pose", lambda p, c: p, default_port=7100),
                        "desktop")
    home.deploy_service(FunctionService("disp", lambda p, c: p, default_port=7101),
                        "tv", native=True)
    return home


def config(pins=None, services=None):
    pins = pins or {}
    services = services or {}
    return PipelineConfig(
        name="p",
        modules=[
            ModuleConfig(name="src", include="./src.js", next_modules=["mid"],
                         device=pins.get("src"), services=services.get("src", []),
                         endpoint="bind#tcp://*:6000"),
            ModuleConfig(name="mid", include="./mid.js", next_modules=["sink"],
                         device=pins.get("mid"), services=services.get("mid", []),
                         endpoint="bind#tcp://*:6001"),
            ModuleConfig(name="sink", include="./sink.js",
                         device=pins.get("sink"), services=services.get("sink", []),
                         endpoint="bind#tcp://*:6002"),
        ],
    )


class TestColocated:
    def test_service_modules_follow_their_services(self, home):
        plan = plan_colocated(
            config(pins={"src": "phone"},
                   services={"mid": ["pose"], "sink": ["disp"]}),
            home.devices, home.registry, default_device="phone",
        )
        assert plan.device_of("src") == "phone"
        assert plan.device_of("mid") == "desktop"
        assert plan.device_of("sink") == "tv"

    def test_service_free_module_inherits_predecessor(self, home):
        plan = plan_colocated(
            config(pins={"src": "phone"}, services={"mid": ["pose"]}),
            home.devices, home.registry, default_device="phone",
        )
        assert plan.device_of("sink") == "desktop"  # follows mid

    def test_source_without_pin_uses_default(self, home):
        plan = plan_colocated(config(), home.devices, home.registry,
                              default_device="tv")
        assert plan.device_of("src") == "tv"

    def test_pin_overrides_services(self, home):
        plan = plan_colocated(
            config(pins={"mid": "phone"}, services={"mid": ["pose"]}),
            home.devices, home.registry, default_device="phone",
        )
        assert plan.device_of("mid") == "phone"

    def test_unhosted_service_rejected(self, home):
        with pytest.raises(PlacementError, match="hosted nowhere"):
            plan_colocated(config(services={"mid": ["ghost"]}),
                           home.devices, home.registry, "phone")

    def test_unknown_pinned_device_rejected(self, home):
        with pytest.raises(PlacementError, match="not in the home"):
            plan_colocated(config(pins={"src": "toaster"}),
                           home.devices, home.registry, "phone")

    def test_predecessor_preferred_among_candidates(self, home):
        # host 'pose' on two devices; mid should stick with src's device
        home.deploy_service(FunctionService("pose2", lambda p, c: p,
                                            default_port=7102), "desktop")
        home2 = VideoPipe.paper_testbed(seed=1)
        home2.add_device("laptop")
        home2.deploy_service(FunctionService("pose", lambda p, c: p,
                                             default_port=7100), "desktop")
        home2.deploy_service(FunctionService("pose", lambda p, c: p,
                                             default_port=7100), "laptop")
        plan = plan_colocated(
            config(pins={"src": "laptop"}, services={"mid": ["pose"]}),
            home2.devices, home2.registry, default_device="laptop",
        )
        assert plan.device_of("mid") == "laptop"

    def test_split_services_use_primary(self, home):
        # mid needs both pose (desktop) and disp (tv): no single host —
        # first-listed service wins
        plan = plan_colocated(
            config(services={"mid": ["pose", "disp"]}),
            home.devices, home.registry, "phone",
        )
        assert plan.device_of("mid") == "desktop"


class TestSingleHost:
    def test_everything_on_host(self, home):
        plan = plan_single_host(config(), home.devices, "phone")
        assert set(plan.assignments.values()) == {"phone"}

    def test_pins_still_respected(self, home):
        plan = plan_single_host(config(pins={"sink": "tv"}), home.devices, "phone")
        assert plan.device_of("sink") == "tv"
        assert plan.device_of("src") == "phone"

    def test_unknown_host_rejected(self, home):
        with pytest.raises(PlacementError):
            plan_single_host(config(), home.devices, "toaster")

    def test_plan_missing_module_raises(self, home):
        plan = plan_single_host(config(), home.devices, "phone")
        with pytest.raises(PlacementError):
            plan.device_of("ghost")
