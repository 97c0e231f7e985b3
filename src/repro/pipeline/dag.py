"""DAG validation for pipeline configurations.

Checks the properties §2's programming model relies on: edges point at
modules that exist, the graph is acyclic, every module is reachable from the
source (otherwise it would never see a frame), and endpoints don't collide.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..net.address import parse_endpoint
from .config import PipelineConfig


def walk(config: PipelineConfig) -> list[tuple[str, tuple[str, ...]]]:
    """Each module with its predecessors (in config order), in Kahn's order:
    the modules nothing points at, in config order, then each child, in
    ``next_modules`` order, once its last predecessor is walked. A repeated
    ``next_modules`` entry is one edge. Raises
    :class:`~repro.errors.ConfigError` on an unknown target or a cycle.
    """
    successors = {m.name: list(dict.fromkeys(m.next_modules)) for m in config.modules}
    predecessors: dict[str, list[str]] = {name: [] for name in successors}
    for name, targets in successors.items():
        for target in targets:
            if target not in predecessors:
                raise ConfigError(
                    f"module {name!r} points at unknown module {target!r}"
                )
            predecessors[target].append(name)
    waiting = {name: len(preds) for name, preds in predecessors.items()}
    order = [name for name, count in waiting.items() if not count]
    for name in order:  # grows as children become ready
        for child in successors[name]:
            waiting[child] -= 1
            if not waiting[child]:
                order.append(child)
    if len(order) < len(successors):
        # each module left waits on another one left: walk back to a repeat
        path = [next(name for name, count in waiting.items() if count)]
        while path.count(path[-1]) < 2:
            path.append(next(p for p in predecessors[path[-1]] if waiting[p]))
        cycle = " -> ".join(reversed(path[path.index(path[-1]):]))
        raise ConfigError(f"pipeline {config.name!r} has a cycle: {cycle}")
    return [(name, tuple(predecessors[name])) for name in order]


def validate(config: PipelineConfig) -> list[tuple[str, tuple[str, ...]]]:
    """Validate the whole configuration; returns its walk on success.

    Raises :class:`~repro.errors.ConfigError` with a specific message on the
    first violation found.
    """
    if not config.modules:
        raise ConfigError(f"pipeline {config.name!r} has no modules")
    steps = walk(config)
    source = config.source_module
    if source not in dict(steps):
        raise ConfigError(f"source module {source!r} is not defined")
    reachable = {source}
    for name, predecessors in steps:
        if reachable.intersection(predecessors):
            reachable.add(name)
    unreachable = {name for name, _ in steps} - reachable
    if unreachable:
        raise ConfigError(
            f"modules unreachable from source {source!r}: {sorted(unreachable)}"
        )

    _validate_endpoints(config)
    return steps


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

