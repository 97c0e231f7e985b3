"""Property-based tests: configuration serialization roundtrips."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import config_from_dict, parse_pipeline_json

module_names = st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True)


@st.composite
def pipeline_dicts(draw):
    """Random structurally-plausible pipeline dicts (unique module names)."""
    names = sorted(draw(st.sets(module_names, min_size=1, max_size=6)))
    edges: dict[str, list[str]] = {name: [] for name in names}
    for i, name in enumerate(names):
        # edges point forward only, so the DAG property holds by construction
        later = names[i + 1:]
        if later:
            edges[name] = draw(st.lists(st.sampled_from(later), unique=True,
                                        max_size=len(later)))
    # guarantee reachability from the source: every later module gets an
    # incoming edge from some earlier one if it has none yet
    for i, name in enumerate(names[1:], start=1):
        if not any(name in edges[p] for p in names[:i]):
            predecessor = names[draw(st.integers(0, i - 1))]
            edges[predecessor].append(name)
    modules = []
    for i, name in enumerate(names):
        modules.append({
            "name": name,
            "include": f"./{name}.js",
            "services": draw(st.lists(module_names, max_size=3, unique=True)),
            "endpoint": f"bind#tcp://*:{6000 + i}",
            "next_modules": edges[name],
            "device": draw(st.none() | module_names),
            "params": {},
        })
    return {"name": draw(module_names), "source": names[0], "modules": modules}


@given(data=pipeline_dicts())
@settings(max_examples=80)
def test_dict_roundtrip_is_lossless(data):
    config = config_from_dict(data)
    assert config_from_dict(config.as_dict()).as_dict() == config.as_dict()


@given(data=pipeline_dicts())
@settings(max_examples=80)
def test_json_roundtrip_is_lossless(data):
    config = config_from_dict(data)
    clone = parse_pipeline_json(json.dumps(config.as_dict()))
    assert clone.as_dict() == config.as_dict()


@given(data=pipeline_dicts())
@settings(max_examples=50)
def test_generated_dags_validate(data):
    """Forward-edge construction guarantees validity: validate() agrees."""
    from repro.pipeline import validate

    config = config_from_dict(data)
    validate(config)


@given(data=pipeline_dicts())
@settings(max_examples=50)
def test_topological_order_respects_edges(data):
    from repro.pipeline.dag import walk

    config = config_from_dict(data)
    order = {name: i for i, (name, _) in enumerate(walk(config))}
    for module in config.modules:
        for target in module.next_modules:
            assert order[module.name] < order[target]
