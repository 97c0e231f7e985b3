"""Replica/host selection for service calls.

When a service is hosted on several devices, which one should a remote
caller dial? The paper's stateless-service design makes any replica valid,
and co-location keeps nearly every call local, so there is one rule: the
live host with the least expected service time on its device.
"""

from __future__ import annotations

from ..errors import ServiceError
from .host import ServiceHost
from .registry import ServiceRegistry


def expected_service_time(
    host: ServiceHost, batch_size: float | None = None
) -> float:
    """Expected compute seconds for one call on this host's device.

    Batching amortizes per-call overhead, so the per-item estimate shrinks
    with batch size: by default the host's *observed* mean dispatch size is
    used (1.0 on a host that has never batched, reproducing the unbatched
    estimate exactly); pass *batch_size* to ask about a hypothetical load.
    """
    n = batch_size if batch_size is not None else host.avg_batch_size()
    return host.device.spec.compute_time(
        host.service.amortized_item_cost_s(n)
    )


def host_is_live(host: ServiceHost) -> bool:
    """A host is dialable only while both it and its device are up."""
    return host.up and host.device.up


def service_pressure(registry: ServiceRegistry, service_name: str) -> float:
    """Backlog on a service across its live replicas: queued requests plus
    in-service requests beyond the replica pool's capacity, summed over
    hosts. 0.0 means every request finds a free worker immediately; the
    overload detector reads this as its queue probe — sustained positive
    pressure on a service a pipeline calls is queueing delay that will show
    up in that pipeline's tail latency. An unknown service reads 0.0 (the
    pipeline calls nothing that can queue). Pooled hosts report through the
    same surface: ``queue_length`` is the host's own waiting requests and
    ``busy_workers - replicas`` is slots borrowed beyond its share."""
    pressure = 0.0
    for host in registry.hosts_of(service_name):
        if not host_is_live(host):
            continue
        pressure += host.queue_length
        pressure += max(0, host.busy_workers - host.replicas)
    return pressure


def select_host(
    registry: ServiceRegistry,
    service_name: str,
    exclude_devices: frozenset[str] | set[str] | tuple[str, ...] = (),
) -> ServiceHost:
    """Choose the fastest *live* host of *service_name*.

    Fastest means the least :func:`expected_service_time`. Crashed hosts
    and hosts on down devices are skipped — this is the failover half of
    the recovery story: a retrying caller re-selects and lands on a
    surviving replica. ``exclude_devices`` lets that caller also skip
    devices it already tried. Deterministic: ties break by device name, so
    placement and simulation stay reproducible.
    """
    registered = registry.hosts_of(service_name)
    if not registered:
        raise ServiceError(f"no host registered for service {service_name!r}")
    hosts = [
        h for h in registered
        if host_is_live(h) and h.device.name not in exclude_devices
    ]
    if not hosts:
        raise ServiceError(
            f"no live replica of {service_name!r}"
            f" ({len(registered)} registered, all down or excluded)"
        )
    return min(hosts, key=lambda h: (expected_service_time(h), h.device.name))
