"""Module/pipeline versioning: config, wiring, and metrics surfacing."""

import pytest

from repro.core import VideoPipe
from repro.errors import ConfigError
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.pipeline.config import config_from_dict
from repro.runtime import Module, register_module
from repro.services import Service


@register_module("./VersionedNoop.js")
class Noop(Module):
    def event_received(self, ctx, event):
        pass


def versioned_config():
    return PipelineConfig(
        name="versioned",
        version="v3",
        modules=[
            ModuleConfig(name="a", include="./VersionedNoop.js",
                         next_modules=["b"], version="v2",
                         endpoint="bind#tcp://*:6300"),
            ModuleConfig(name="b", include="./VersionedNoop.js",
                         endpoint="bind#tcp://*:6301"),
        ],
    )


class TestConfigVersioning:
    def test_defaults_to_v1(self):
        cfg = ModuleConfig(name="m", include="./VersionedNoop.js")
        assert cfg.version == "v1"
        assert PipelineConfig(name="p", modules=[cfg]).version == "v1"

    def test_empty_version_rejected(self):
        with pytest.raises(ConfigError):
            ModuleConfig(name="m", include="./VersionedNoop.js", version="")
        with pytest.raises(ConfigError):
            PipelineConfig(
                name="p", version="",
                modules=[ModuleConfig(name="m", include="./VersionedNoop.js")],
            )

    def test_as_dict_roundtrip_preserves_versions(self):
        cfg = versioned_config()
        data = cfg.as_dict()
        assert data["version"] == "v3"
        assert data["modules"][0]["version"] == "v2"
        back = config_from_dict(data)
        assert back.version == "v3"
        assert back.module("a").version == "v2"
        assert back.module("b").version == "v1"

    def test_service_version_defaults_to_v1(self):
        assert Service().version == "v1"


class TestDeployedVersioning:
    def test_wiring_and_describe_surface_versions(self):
        home = VideoPipe.paper_testbed(seed=0)
        pipeline = home.deploy_pipeline(versioned_config(),
                                        default_device="phone")
        assert pipeline.wiring.version_of("a") == "v2"
        assert pipeline.wiring.version_of("b") == "v1"

    def test_version_labels_in_metrics(self):
        home = VideoPipe.paper_testbed(seed=0)
        pipeline = home.deploy_pipeline(versioned_config(),
                                        default_device="phone")
        counters = pipeline.metrics.counters()
        assert counters["module_version.a.v2"] == 1
        assert counters["module_version.b.v1"] == 1

    def test_unknown_module_version_defaults_v1(self):
        home = VideoPipe.paper_testbed(seed=0)
        pipeline = home.deploy_pipeline(versioned_config(),
                                        default_device="phone")
        assert pipeline.wiring.version_of("never-deployed") == "v1"
