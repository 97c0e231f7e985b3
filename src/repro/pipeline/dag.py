"""DAG validation for pipeline configurations.

Checks the properties §2's programming model relies on: edges point at
modules that exist, the graph is acyclic, every module is reachable from the
source (otherwise it would never see a frame), and endpoints don't collide.
"""

from __future__ import annotations

import networkx as nx

from ..errors import ConfigError
from ..net.address import parse_endpoint
from .config import PipelineConfig


def build_graph(config: PipelineConfig) -> nx.DiGraph:
    """The configuration's module graph (nodes carry their ModuleConfig)."""
    graph = nx.DiGraph()
    for module in config.modules:
        graph.add_node(module.name, config=module)
    for module in config.modules:
        for target in module.next_modules:
            if target not in graph:
                raise ConfigError(
                    f"module {module.name!r} points at unknown module {target!r}"
                )
            graph.add_edge(module.name, target)
    return graph


def validate(config: PipelineConfig) -> nx.DiGraph:
    """Validate the whole configuration; returns the graph on success.

    Raises :class:`~repro.errors.ConfigError` with a specific message on the
    first violation found.
    """
    if not config.modules:
        raise ConfigError(f"pipeline {config.name!r} has no modules")
    graph = build_graph(config)

    if not nx.is_directed_acyclic_graph(graph):
        cycle = nx.find_cycle(graph)
        path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[-1][1]}"
        raise ConfigError(f"pipeline {config.name!r} has a cycle: {path}")

    source = config.source_module
    if source not in graph:
        raise ConfigError(f"source module {source!r} is not defined")
    reachable = {source} | nx.descendants(graph, source)
    unreachable = set(graph.nodes) - reachable
    if unreachable:
        raise ConfigError(
            f"modules unreachable from source {source!r}: {sorted(unreachable)}"
        )

    _validate_endpoints(config)
    return graph


def _validate_endpoints(config: PipelineConfig) -> None:
    seen: dict[tuple[str, int], str] = {}
    for module in config.modules:
        try:
            spec = parse_endpoint(module.endpoint)
        except Exception as exc:
            raise ConfigError(
                f"module {module.name!r} has a bad endpoint: {exc}"
            ) from exc
        if spec.port == 0:
            continue  # auto-assigned later
        key = (module.device or spec.host, spec.port)
        other = seen.get(key)
        if other is not None:
            raise ConfigError(
                f"modules {other!r} and {module.name!r} both bind port"
                f" {spec.port} on the same host"
            )
        seen[key] = module.name


def topological_order(config: PipelineConfig) -> list[str]:
    """Module names in dependency order (source first)."""
    return list(nx.topological_sort(build_graph(config)))

