"""Cost-model-driven placement — the §7 "scheduling" future work.

:func:`plan_colocated <repro.pipeline.placement.plan_colocated>` is a
heuristic: follow the services. This module instead *searches* placements
against an explicit latency model: per-frame critical-path time as the sum
of module dispatch overheads, service times (local or remote), and
inter-device transfer estimates from the topology. On the paper's testbed
the two agree; when services are replicated on devices of different speeds,
or heavy modules would pile onto one slow device, the search wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import networkx as nx

from ..devices.device import Device
from ..errors import PlacementError
from ..net.topology import Topology
from ..runtime.module import Module
from ..services.balancer import host_is_live
from ..services.host import ServiceHost
from ..services.registry import ServiceRegistry
from .config import ModuleConfig, PipelineConfig
from .dag import build_graph
from .placement import PlacementPlan, plan_colocated

#: Assumed payload size on pipeline edges (a quality-80 VGA JPEG); callers
#: can pass a per-edge function for tighter estimates.
DEFAULT_EDGE_BYTES = 42_000

#: Fixed remote-call overhead (marshal both sides + reply) beyond transfer.
REMOTE_CALL_OVERHEAD_S = 0.004

COST_OPTIMIZED = "cost-optimized"

EdgeBytesFn = Callable[[str, str], int]


@dataclass(frozen=True, slots=True)
class PlacementCost:
    """The model's verdict on one candidate placement."""

    critical_path_s: float
    transfer_s: float
    compute_s: float

    @property
    def total(self) -> float:
        return self.critical_path_s


class PlacementModel:
    """Estimates per-frame latency of a placement (no simulation).

    A model is a snapshot of one planning call. The DAG's walk order and
    the host serving each (service, caller device) pair are worked out once
    and read by every candidate's evaluation, so a change of devices, hosts
    or routes needs a new model, not another call on this one.
    """

    def __init__(
        self,
        config: PipelineConfig,
        devices: dict[str, Device],
        registry: ServiceRegistry,
        topology: Topology,
        edge_bytes: EdgeBytesFn | None = None,
    ) -> None:
        self.config = config
        self.devices = devices
        self.registry = registry
        self.topology = topology
        self.edge_bytes = edge_bytes or (lambda a, b: DEFAULT_EDGE_BYTES)
        self.graph = build_graph(config)
        self._modules = {module.name: module for module in config.modules}
        self._walk = [
            (name, tuple(self.graph.predecessors(name)))
            for name in nx.topological_sort(self.graph)
        ]
        self._edges = tuple(self.graph.edges)
        self._serving: dict[tuple[str, str], tuple[ServiceHost, float]] = {}

    # -- node/edge costs ----------------------------------------------------
    def module_cost(self, module: ModuleConfig, device_name: str) -> float:
        """Dispatch overhead + service time for one event on *device_name*."""
        device = self.devices[device_name]
        cost = device.spec.compute_time(Module.event_overhead_s)
        for service_name in module.services:
            cost += self._service_cost(service_name, device_name)
        return cost

    def _service_cost(self, service_name: str, caller_device: str) -> float:
        host, remote_penalty = self._serving_host(service_name, caller_device)
        return (
            host.device.spec.compute_time(host.service.reference_cost_s)
            + remote_penalty
        )

    def _serving_host(
        self, service_name: str, caller_device: str
    ) -> tuple[ServiceHost, float]:
        """The host that serves *caller_device*'s calls to *service_name*
        and the remote-call seconds they pay on top of its service time.

        Only live hosts count (the balancer dials no other). A co-located
        one serves for free; otherwise the cheapest by call overhead +
        request + 512-byte reply + service time, which is the rule the
        ``cost_aware`` balancer dials by. Every term of a score that asks
        where a call runs reads this one answer, resolved once per model.
        """
        key = (service_name, caller_device)
        serving = self._serving.get(key)
        if serving is not None:
            return serving
        hosts = [
            host for host in self.registry.hosts_of(service_name)
            if host_is_live(host)
        ]
        serving = next(
            ((host, 0.0) for host in hosts if host.device.name == caller_device),
            None,
        )
        if serving is None:
            best_total = None
            for host in hosts:
                device = host.device.name
                penalty = (
                    REMOTE_CALL_OVERHEAD_S
                    + self.topology.expected_delay(
                        caller_device, device,
                        self.edge_bytes(caller_device, device),
                    )
                    + self.topology.expected_delay(device, caller_device, 512)
                )
                total = penalty + host.device.spec.compute_time(
                    host.service.reference_cost_s
                )
                if best_total is None or total < best_total:
                    best_total, serving = total, (host, penalty)
        if serving is None:
            raise PlacementError(f"service {service_name!r} has no live host")
        self._serving[key] = serving
        return serving

    def transfer_cost(self, src_device: str, dst_device: str) -> float:
        if src_device == dst_device:
            return 0.0001  # loopback hand-off
        return self.topology.expected_delay(
            src_device, dst_device, self.edge_bytes(src_device, dst_device)
        )

    # -- whole-placement evaluation ---------------------------------------------
    def evaluate(self, assignments: dict[str, str]) -> PlacementCost:
        """Critical-path latency of the DAG under *assignments*."""
        node_cost = {
            name: self.module_cost(module, assignments[name])
            for name, module in self._modules.items()
        }
        # longest path over node+edge weights via DP in topological order
        best: dict[str, float] = {}
        transfer_total = 0.0
        for name, predecessors in self._walk:
            incoming = [
                best[p] + self.transfer_cost(assignments[p], assignments[name])
                for p in predecessors
            ]
            best[name] = node_cost[name] + (max(incoming) if incoming else 0.0)
        for a, b in self._edges:
            transfer_total += self.transfer_cost(assignments[a], assignments[b])
        return PlacementCost(
            critical_path_s=max(best.values()),
            transfer_s=transfer_total,
            compute_s=sum(node_cost.values()),
        )


def plan_cost_optimized(
    config: PipelineConfig,
    devices: dict[str, Device],
    registry: ServiceRegistry,
    topology: Topology,
    default_device: str,
    edge_bytes: EdgeBytesFn | None = None,
    max_combinations: int = 50_000,
) -> PlacementPlan:
    """Search device assignments for the minimum critical-path latency.

    Pinned modules stay pinned; every other module ranges over all devices.
    When the search space exceeds *max_combinations* the heuristic
    co-located plan is refined instead of searched exhaustively.
    """
    if default_device not in devices:
        raise PlacementError(f"default device {default_device!r} not in the home")
    model = PlacementModel(config, devices, registry, topology, edge_bytes)

    fixed: dict[str, str] = {}
    free: list[str] = []
    for module in config.modules:
        if module.device is not None:
            if module.device not in devices:
                raise PlacementError(
                    f"module {module.name!r} pinned to unknown device"
                    f" {module.device!r}"
                )
            fixed[module.name] = module.device
        else:
            free.append(module.name)

    device_names = sorted(devices)
    combos = len(device_names) ** len(free)
    fallback = plan_colocated(config, devices, registry, default_device)
    if combos > max_combinations:
        # too large to search: score the heuristic and a few local moves
        return _refine(model, fallback, device_names)

    best_assignment: dict[str, str] | None = None
    best_cost = float("inf")
    for choice in itertools.product(device_names, repeat=len(free)):
        assignments = dict(fixed)
        assignments.update(zip(free, choice))
        cost = model.evaluate(assignments).total
        if cost < best_cost:
            best_cost = cost
            best_assignment = assignments
    assert best_assignment is not None
    plan = PlacementPlan(pipeline=config.name, strategy=COST_OPTIMIZED,
                         assignments=best_assignment)
    # never return something worse than the heuristic
    if model.evaluate(fallback.assignments).total < best_cost:
        return fallback
    return plan


def _refine(
    model: PlacementModel, start: PlacementPlan, device_names: list[str]
) -> PlacementPlan:
    """Greedy local search: move one module at a time while it helps."""
    assignments = dict(start.assignments)
    current = model.evaluate(assignments).total
    improved = True
    while improved:
        improved = False
        for name in assignments:
            if model.config.module(name).device is not None:
                continue  # pinned
            original = assignments[name]
            for candidate in device_names:
                if candidate == original:
                    continue
                assignments[name] = candidate
                cost = model.evaluate(assignments).total
                if cost < current - 1e-9:
                    current = cost
                    improved = True
                    original = candidate
                else:
                    assignments[name] = original
    return PlacementPlan(pipeline=start.pipeline, strategy=COST_OPTIMIZED,
                         assignments=assignments)
