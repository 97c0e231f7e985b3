"""Module placement: where each module runs.

The paper's key deployment idea: "our modules are deployed in a way that
they are co-located with the corresponding services available on the
devices" (§5.1). :func:`plan_colocated` implements that policy;
:func:`plan_single_host` reproduces the EdgeEye-style baseline, where the
whole application sits on one device and every service call crosses the
network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..devices.device import Device
from ..errors import PlacementError
from ..services.balancer import host_is_live
from ..services.registry import ServiceRegistry
from .config import PipelineConfig
from .dag import walk

COLOCATED = "colocated"
SINGLE_HOST = "single-host"


@dataclass(slots=True)
class PlacementPlan:
    """A resolved module → device assignment."""

    pipeline: str
    strategy: str
    assignments: dict[str, str] = field(default_factory=dict)

    def device_of(self, module_name: str) -> str:
        try:
            return self.assignments[module_name]
        except KeyError:
            raise PlacementError(
                f"plan for {self.pipeline!r} does not place module"
                f" {module_name!r}"
            )


def _check_device(name: str, devices: dict[str, Device], context: str) -> None:
    if name not in devices:
        raise PlacementError(
            f"{context}: device {name!r} is not in the home"
            f" (known: {sorted(devices)})"
        )


def plan_colocated(
    config: PipelineConfig,
    devices: dict[str, Device],
    registry: ServiceRegistry,
    default_device: str,
) -> PlacementPlan:
    """VideoPipe placement: put each module next to the services it calls.

    Rules, applied per module in topological order:

    1. an explicit ``device`` pin wins (validated against the home);
    2. a module that declares services goes to a device hosting **all** of
       them — preferring its predecessor's device — or, failing that, to the
       device hosting its *first-listed* service (the heavy one by
       convention). Only a live host on one of *devices* counts, the rule
       the cost model resolves calls by: the registry keeps listing a
       crashed host, but a module must not follow it there;
    3. a service-free module inherits its first predecessor's device;
    4. the source (no predecessor) defaults to *default_device*.
    """
    _check_device(default_device, devices, "default device")
    plan = PlacementPlan(pipeline=config.name, strategy=COLOCATED)

    for name, upstream in walk(config):
        module = config.module(name)
        predecessors = [plan.assignments[p] for p in upstream]
        if module.device is not None:
            _check_device(module.device, devices, f"module {name!r} pin")
            plan.assignments[name] = module.device
            continue
        if module.services:
            plan.assignments[name] = _place_by_services(
                name, module.services, devices, registry, predecessors
            )
            continue
        plan.assignments[name] = predecessors[0] if predecessors else default_device
    return plan


def _place_by_services(
    module_name: str,
    services: list[str],
    devices: dict[str, Device],
    registry: ServiceRegistry,
    predecessors: list[str],
) -> str:
    for service in services:
        if service not in registry:
            raise PlacementError(
                f"module {module_name!r} needs service {service!r}, which is"
                " hosted nowhere in the home"
            )
    hosting = [
        {
            host.device.name for host in registry.hosts_of(service)
            if host_is_live(host) and host.device.name in devices
        }
        for service in services
    ]
    if not hosting[0]:
        raise PlacementError(
            f"module {module_name!r}: service {services[0]!r} has no live host"
            f" on any of {sorted(devices)}"
        )
    # devices hosting every declared service
    candidates = set.intersection(*hosting)
    if candidates:
        for pred_device in predecessors:
            if pred_device in candidates:
                return pred_device
        return sorted(candidates)[0]
    # no single device hosts them all: sit with the first-listed (primary)
    # service; the rest are called remotely
    return sorted(hosting[0])[0]


def plan_single_host(
    config: PipelineConfig,
    devices: dict[str, Device],
    host_device: str,
) -> PlacementPlan:
    """Baseline placement (Fig. 5): every module on one device; services
    stay wherever they are hosted and are reached by remote API calls."""
    _check_device(host_device, devices, "baseline host")
    plan = PlacementPlan(pipeline=config.name, strategy=SINGLE_HOST)
    for module in config.modules:
        if module.device is not None and module.device != host_device:
            # respect explicit pins even in the baseline (e.g. a display
            # module that physically must run on the TV)
            _check_device(module.device, devices, f"module {module.name!r} pin")
            plan.assignments[module.name] = module.device
        else:
            plan.assignments[module.name] = host_device
    return plan
