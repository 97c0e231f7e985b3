"""Unit tests for DAG validation."""

import pytest

from repro.errors import ConfigError
from repro.pipeline import ModuleConfig, PipelineConfig, validate
from repro.pipeline.dag import walk


def chain(*names, extra_edges=None, endpoints=None):
    extra_edges = extra_edges or {}
    modules = []
    for i, name in enumerate(names):
        nexts = [names[i + 1]] if i + 1 < len(names) else []
        nexts += extra_edges.get(name, [])
        endpoint = (endpoints or {}).get(name, f"bind#tcp://*:{6000 + i}")
        modules.append(
            ModuleConfig(name=name, include=f"./{name}.js",
                         next_modules=nexts, endpoint=endpoint)
        )
    return PipelineConfig(name="p", modules=modules)


class TestValidate:
    def test_valid_chain_passes(self):
        steps = validate(chain("a", "b", "c"))
        assert steps == [("a", ()), ("b", ("a",)), ("c", ("b",))]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigError, match="no modules"):
            validate(PipelineConfig(name="p"))

    def test_unknown_target_rejected(self):
        config = chain("a", "b", extra_edges={"b": ["ghost"]})
        with pytest.raises(ConfigError, match="unknown module 'ghost'"):
            validate(config)

    def test_cycle_rejected(self):
        config = chain("a", "b", "c", extra_edges={"c": ["a"]})
        with pytest.raises(ConfigError, match="has a cycle: a -> b -> c -> a$"):
            validate(config)

    def test_self_loop_rejected(self):
        config = chain("a", extra_edges={"a": ["a"]})
        with pytest.raises(ConfigError, match="has a cycle: a -> a$"):
            validate(config)

    def test_unreachable_module_rejected(self):
        config = PipelineConfig(
            name="p",
            modules=[
                ModuleConfig(name="a", include="./a.js", endpoint="bind#tcp://*:6000"),
                ModuleConfig(name="orphan", include="./o.js",
                             endpoint="bind#tcp://*:6001"),
            ],
        )
        with pytest.raises(ConfigError, match="unreachable"):
            validate(config)

    def test_port_collision_rejected(self):
        config = chain("a", "b", endpoints={
            "a": "bind#tcp://*:6000", "b": "bind#tcp://*:6000"
        })
        with pytest.raises(ConfigError, match="both bind port"):
            validate(config)

    def test_port_zero_never_collides(self):
        config = chain("a", "b", endpoints={
            "a": "bind#tcp://*:0", "b": "bind#tcp://*:0"
        })
        validate(config)

    def test_bad_endpoint_rejected(self):
        config = chain("a", endpoints={"a": "not-an-endpoint"})
        with pytest.raises(ConfigError, match="bad endpoint"):
            validate(config)

    def test_fan_out_and_merge_allowed(self):
        """The fitness DAG: a → {b, c}, b → c."""
        config = PipelineConfig(
            name="p",
            modules=[
                ModuleConfig(name="a", include="./a.js", next_modules=["b", "c"],
                             endpoint="bind#tcp://*:6000"),
                ModuleConfig(name="b", include="./b.js", next_modules=["c"],
                             endpoint="bind#tcp://*:6001"),
                ModuleConfig(name="c", include="./c.js",
                             endpoint="bind#tcp://*:6002"),
            ],
        )
        validate(config)


class TestGraphQueries:
    def test_topological_order(self):
        order = [name for name, _ in walk(chain("a", "b", "c"))]
        assert order == ["a", "b", "c"]

    def test_walk_lists_predecessors_in_config_order_once(self):
        """The fitness DAG with a repeated edge: a → {b, c, c}, b → c."""
        config = chain("a", "b", "c", extra_edges={"a": ["c", "c"]})
        assert walk(config) == [("a", ()), ("b", ("a",)), ("c", ("a", "b"))]
