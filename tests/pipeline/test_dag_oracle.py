"""Oracle: the pipeline DAG walk is the one networkx would give.

networkx is a dev extra. On arbitrary configurations — the fuzz suite's DAGs
with their module order shuffled, repeated ``next_modules`` entries, and
sometimes a cycle, a self-loop, an unknown target or an unreachable module —
``walk`` must list the modules in ``nx.topological_sort``'s order with
``predecessors`` in the ``DiGraph``'s order, the cost model's edges must be
``graph.edges`` in order, and ``walk`` and ``validate`` must refuse exactly
what the networkx checks refuse, with the same message — but for a cycle,
where any one cycle of the graph will do.

``REPRO_FUZZ_N`` scales the example budget like the other fuzz suites.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pipeline import PipelineConfig, validate
from repro.pipeline.dag import walk
from repro.pipeline.optimizer import CostModel

from .strategies import random_pipeline_config

nx = pytest.importorskip("networkx")

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))


def mutated_config(rng: random.Random) -> PipelineConfig:
    """A fuzz DAG, shuffled, with repeated edges and sometimes one defect."""
    modules = random_pipeline_config(rng, max_modules=7).modules
    for module in modules:
        if module.next_modules and rng.random() < 0.3:
            module.next_modules.append(rng.choice(module.next_modules))
    names = [module.name for module in modules]
    defect = rng.random()
    if defect < 0.15:  # an edge back to an earlier module: often a cycle
        later = rng.randrange(1, len(modules))
        modules[later].next_modules.append(names[rng.randrange(later)])
    elif defect < 0.25:
        rng.choice(modules).next_modules.append(rng.choice(names))
    elif defect < 0.3:
        rng.choice(modules).next_modules.append("ghost")
    elif defect < 0.4:  # cut every edge into one module
        cut = rng.choice(names[1:])
        for module in modules:
            module.next_modules = [t for t in module.next_modules if t != cut]
    rng.shuffle(modules)
    return PipelineConfig(name="fuzz", modules=modules,
                          source=rng.choice(["m0", None]))


def networkx_graph(config: PipelineConfig):
    """The ``DiGraph`` of *config*, or the unknown-target refusal."""
    graph = nx.DiGraph()
    graph.add_nodes_from(module.name for module in config.modules)
    for module in config.modules:
        for target in module.next_modules:
            if target not in graph:
                return None, (f"module {module.name!r} points at unknown"
                              f" module {target!r}")
            graph.add_edge(module.name, target)
    return graph, None


#: Stands for "has a cycle: a -> ... -> a", any cycle of the graph.
CYCLE = "a cycle"


def networkx_walk_refusal(config: PipelineConfig) -> str | None:
    """What ``walk`` must say, worked out with networkx."""
    graph, refusal = networkx_graph(config)
    if refusal or nx.is_directed_acyclic_graph(graph):
        return refusal
    return CYCLE


def networkx_refusal(config: PipelineConfig) -> str | None:
    """What ``validate`` must say, worked out with networkx."""
    refusal = networkx_walk_refusal(config)
    if refusal:
        return refusal
    graph, _ = networkx_graph(config)
    source = config.source_module
    unreachable = set(graph) - {source} - nx.descendants(graph, source)
    if unreachable:
        return (f"modules unreachable from source {source!r}:"
                f" {sorted(unreachable)}")
    return None


def assert_refuses(call, config: PipelineConfig, refusal: str) -> None:
    with pytest.raises(ConfigError) as refused:
        call(config)
    message = str(refused.value)
    if refusal != CYCLE:
        assert message == refusal
        return
    prefix = f"pipeline {config.name!r} has a cycle: "
    assert message.startswith(prefix), message
    cycle = message.removeprefix(prefix).split(" -> ")
    graph, _ = networkx_graph(config)
    assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1, cycle
    assert all(graph.has_edge(a, b) for a, b in zip(cycle, cycle[1:])), cycle


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_walk_and_edges_equal_networkx(seed):
    config = mutated_config(random.Random(seed))
    refusal = networkx_walk_refusal(config)
    if refusal:
        assert_refuses(walk, config, refusal)
        return
    graph, _ = networkx_graph(config)
    assert walk(config) == [
        (name, tuple(graph.predecessors(name)))
        for name in nx.topological_sort(graph)
    ]
    assert CostModel(config, {}, None, None)._edges == tuple(graph.edges)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_validate_refuses_what_networkx_refuses(seed):
    config = mutated_config(random.Random(seed))
    refusal = networkx_refusal(config)
    if refusal is None:
        validate(config)
    else:
        assert_refuses(validate, config, refusal)


def refusal_kind(config: PipelineConfig) -> str:
    refusal = networkx_refusal(config)
    if refusal == CYCLE and nx.number_of_selfloops(networkx_graph(config)[0]):
        return "self-loop"
    if refusal is None or refusal == CYCLE:
        return refusal or "valid"
    return "unknown module" if "unknown" in refusal else "unreachable"


def test_the_generator_reaches_every_refusal():
    """The defects above are not dead code: each kind of refusal and the
    valid case all come out of the first few hundred seeds."""
    kinds = {refusal_kind(mutated_config(random.Random(seed)))
             for seed in range(300)}
    assert kinds == {"valid", "self-loop", CYCLE, "unknown module",
                     "unreachable"}
