"""Replica/host selection for service calls.

When a service is hosted on several devices, which one should a remote
caller dial? The paper's stateless-service design makes any replica valid;
this module provides the selection policies:

* ``fastest`` — minimum expected service time on the host's device;
* ``least_loaded`` — fewest queued requests, ties broken by ``fastest``;
* ``cost_aware`` — minimum expected service time *plus* the round-trip
  network cost from the caller, the same placement-cost view the
  :mod:`optimizer <repro.pipeline.optimizer>` scores candidates with. A
  nearby mid-speed replica beats a fast one across a congested link.
"""

from __future__ import annotations

from ..errors import NetworkError, ServiceError
from .host import ServiceHost
from .registry import ServiceRegistry

FASTEST = "fastest"
LEAST_LOADED = "least_loaded"
COST_AWARE = "cost_aware"

POLICIES = (FASTEST, LEAST_LOADED, COST_AWARE)

#: Assumed request payload for the cost-aware policy's network estimate (a
#: quality-80 VGA JPEG, matching the placement cost model's edge estimate).
DEFAULT_PAYLOAD_BYTES = 42_000


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


def pool_contention_s(host: ServiceHost) -> float:
    """Expected extra queueing seconds from shared-pool contention on a
    pooled host: the device pool's backlog-per-slot scaled by this
    service's own compute time. 0.0 on fixed-replica hosts — their queues
    are already visible as ``queue_length``; a pooled host's real wait is
    set by *everyone* queued on the device's shared slots."""
    pool = host.pool
    if pool is None:
        return 0.0
    return pool.contention() * expected_service_time(host)


def expected_call_cost(
    host: ServiceHost,
    caller_device,
    topology,
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
) -> float:
    """Expected seconds for one call on *host* as seen from the caller:
    service time plus pool contention (on pooled hosts) plus the two-way
    network transfer (zero when co-located). An unresolvable route
    (mid-partition) is charged a pessimistic 0.5 s rather than raised —
    selection should route *around* the partition."""
    cost = expected_service_time(host) + pool_contention_s(host)
    if host.device.name == caller_device.name:
        return cost
    try:
        cost += topology.expected_delay(
            caller_device.name, host.device.name, payload_bytes
        )
        cost += topology.expected_delay(host.device.name, caller_device.name, 512)
    except NetworkError:
        cost += 0.5
    return cost


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
    same surface: ``queue_length`` is the lease's own waiting requests and
    ``busy_workers - replicas`` is slots borrowed beyond the share."""
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
    policy: str = FASTEST,
    exclude_devices: frozenset[str] | set[str] | tuple[str, ...] = (),
    caller_device=None,
    topology=None,
) -> ServiceHost:
    """Choose a *live* host of *service_name* under *policy*.

    Crashed hosts and hosts on down devices are skipped — this is the
    failover half of the recovery story: a retrying caller re-selects and
    lands on a surviving replica. ``exclude_devices`` lets that caller also
    skip devices it already tried. Deterministic: ties break by device name,
    so placement and simulation stay reproducible.

    The ``cost_aware`` policy additionally needs *caller_device* and
    *topology* to price the network leg of each candidate.
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
    if policy == FASTEST:
        return min(hosts, key=lambda h: (expected_service_time(h), h.device.name))
    if policy == LEAST_LOADED:
        # a pooled host's effective backlog includes the device pool's
        # shared-slot contention, not just its own lease queue
        return min(
            hosts,
            key=lambda h: (h.queue_length + h.busy_workers - h.replicas
                           + (h.pool.backlog if h.pool is not None else 0),
                           expected_service_time(h), h.device.name),
        )
    if policy == COST_AWARE:
        if caller_device is None or topology is None:
            raise ServiceError(
                "cost_aware balancing needs caller_device and topology"
            )
        return min(
            hosts,
            key=lambda h: (
                expected_call_cost(h, caller_device, topology), h.device.name
            ),
        )
    raise ServiceError(f"unknown balancing policy {policy!r}; known: {POLICIES}")
