"""Unit tests for configuration model and the Listing-1 parser."""

import pytest

from repro.errors import ConfigError
from repro.pipeline import (
    ModuleConfig,
    PipelineConfig,
    config_from_dict,
    parse_pipeline_json,
    parse_pipeline_text,
)

#: The paper's Listing 1, nearly verbatim.
LISTING_1 = """
// An Example of DAG Configuration for a Pipeline
modules : [
    { name: pose_detector_module
      include ("./PoseDetectorModule.js")
      service: ['pose_detector']
      endpoint: ["bind#tcp://*:5861"]
      next_module: activity_detector_module }
    { name: activity_detector_module
      include ("./ActivityDetectorModule.js")
      service: ['activity_detector']
      endpoint: ["bind#tcp://*:5862"]
      next_module: [rep_counter_module,
                    display_module] }
    { name: rep_counter_module
      include ("./RepCounterModule.js")
      service: ['rep_counter']
      endpoint: ["bind#tcp://*:5863"]
      next_module: display_module }
    { name: display_module
      include ("./DisplayModule.js")
      service: ['display']
      endpoint: ["bind#tcp://*:5864"]
      next_module: [] }
]
"""


class TestListingParser:
    def test_parses_paper_listing(self):
        config = parse_pipeline_text(LISTING_1, name="fitness")
        assert config.name == "fitness"
        assert config.module_names() == [
            "pose_detector_module",
            "activity_detector_module",
            "rep_counter_module",
            "display_module",
        ]
        pose = config.module("pose_detector_module")
        assert pose.include == "./PoseDetectorModule.js"
        assert pose.services == ["pose_detector"]
        assert pose.endpoint == "bind#tcp://*:5861"
        assert pose.next_modules == ["activity_detector_module"]

    def test_multi_target_next_module(self):
        config = parse_pipeline_text(LISTING_1)
        activity = config.module("activity_detector_module")
        assert activity.next_modules == ["rep_counter_module", "display_module"]

    def test_comment_lines_skipped(self):
        config = parse_pipeline_text(LISTING_1)
        assert len(config.modules) == 4

    def test_requires_modules_header(self):
        with pytest.raises(ConfigError):
            parse_pipeline_text("pipelines: []")

    def test_unterminated_entry_rejected(self):
        with pytest.raises(ConfigError):
            parse_pipeline_text("modules : [ { name: x ")

    def test_unknown_key_rejected(self):
        text = """
        modules : [
            { name: m include ("./M.js") flavour: spicy }
        ]
        """
        with pytest.raises(ConfigError, match="flavour"):
            parse_pipeline_text(text)

    def test_multi_endpoint_rejected(self):
        text = """
        modules : [
            { name: m include ("./M.js")
              endpoint: ["bind#tcp://*:1", "bind#tcp://*:2"] }
        ]
        """
        with pytest.raises(ConfigError, match="single value"):
            parse_pipeline_text(text)


class TestJsonParser:
    def test_roundtrip_through_dict(self):
        config = parse_pipeline_text(LISTING_1, name="fitness")
        import json

        clone = parse_pipeline_json(json.dumps(config.as_dict()))
        assert clone.as_dict() == config.as_dict()

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_pipeline_json("{not json")
        with pytest.raises(ConfigError):
            parse_pipeline_json("[1, 2]")


class TestConfigModel:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(
                name="p",
                modules=[
                    ModuleConfig(name="m", include="./M.js"),
                    ModuleConfig(name="m", include="./M.js"),
                ],
            )

    def test_module_lookup(self):
        config = PipelineConfig(
            name="p", modules=[ModuleConfig(name="m", include="./M.js")]
        )
        assert config.module("m").include == "./M.js"
        with pytest.raises(ConfigError):
            config.module("ghost")

    def test_source_defaults_to_first_module(self):
        config = PipelineConfig(
            name="p",
            modules=[
                ModuleConfig(name="a", include="./A.js"),
                ModuleConfig(name="b", include="./B.js"),
            ],
        )
        assert config.source_module == "a"

    def test_explicit_source_wins(self):
        config = PipelineConfig(
            name="p",
            modules=[ModuleConfig(name="a", include="./A.js")],
            source="a",
        )
        assert config.source_module == "a"

    def test_declared_services_deduplicated(self):
        config = PipelineConfig(
            name="p",
            modules=[
                ModuleConfig(name="a", include="./A.js", services=["pose", "disp"]),
                ModuleConfig(name="b", include="./B.js", services=["pose"]),
            ],
        )
        assert config.declared_services() == ["disp", "pose"]

    def test_config_from_dict_validates_keys(self):
        with pytest.raises(ConfigError, match="unknown module config keys"):
            config_from_dict(
                {"name": "p", "modules": [{"name": "m", "include": "./M.js",
                                           "color": "red"}]}
            )
        with pytest.raises(ConfigError,
                           match=r"unknown pipeline config keys: \['sorce'\]"):
            config_from_dict(
                {"name": "p", "sorce": "m",
                 "modules": [{"name": "m", "include": "./M.js"}]}
            )

    def test_config_from_dict_needs_name(self):
        with pytest.raises(ConfigError):
            config_from_dict({"modules": []})

    def test_scalar_next_module_normalized(self):
        config = config_from_dict(
            {"name": "p", "modules": [
                {"name": "a", "include": "./A.js", "next_module": "b"},
                {"name": "b", "include": "./B.js"},
            ]}
        )
        assert config.module("a").next_modules == ["b"]
