"""Pool-based service parallelism: one shared replica pool per device.

The seed design statically partitions a device's worker capacity per
service: every :class:`~repro.services.host.ServiceHost` owns a fixed
:class:`~repro.sim.resources.Resource` of ``replicas`` slots, so a pose
burst queues behind its own host while the activity host's workers idle.
PPipe's observation (PAPERS.md) is that drawing replicas of *different*
service classes from one shared capacity pool beats any fixed split.

:class:`ReplicaPool` owns the device's slots (default: one per CPU core)
and the hosts attached to it. An attached host requests its worker slots
straight from :attr:`ReplicaPool.slots`, and its ``replicas`` is its
*share* — the host's fair number of slots, adjusted by the AutoScaler and
the SLO ladder exactly where they add/remove replicas — but the pool is
work-conserving: a host may borrow idle slots beyond its share, and when
slots are scarce, requests from hosts *under* their share are served
before requests from hosts borrowing over it (the priority a dispatch
passes to :meth:`~repro.sim.resources.Resource.request`).

A host that crashes leaves the pool as it leaves a private ``Resource``:
each interrupted dispatch abandons its queued request, which takes it off
the shared queue, and releases a slot it already holds when its
interrupt lands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import ServiceError
from ..sim.kernel import Kernel
from ..sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.device import Device
    from .host import ServiceHost


class ReplicaPool:
    """The per-device shared replica pool.

    Args:
        kernel: the simulation kernel.
        device_name: owning device (hosts never draw across devices).
        slots: physical worker slots; defaults to the device's core count
            when built through :meth:`for_device`.
    """

    def __init__(self, kernel: Kernel, device_name: str, slots: int) -> None:
        if slots < 1:
            raise ServiceError("replica pool needs at least one slot")
        self.kernel = kernel
        self.device_name = device_name
        self.base_slots = slots
        self.slots = Resource(
            kernel, slots, name=f"{device_name}.replica-pool"
        )
        #: service name -> attached host, in attach order; each host's
        #: ``replicas`` is its share.
        self.hosts: dict[str, "ServiceHost"] = {}
        # statistics, counted by the hosts as their dispatches take slots
        self.total_grants = 0
        self.borrowed_total = 0

    @classmethod
    def for_device(cls, kernel: Kernel, device: "Device",
                   slots: int | None = None) -> "ReplicaPool":
        """A pool sized to *device* (one slot per core by default)."""
        return cls(kernel, device.name, slots or device.spec.cores)

    # -- membership -------------------------------------------------------------
    def attach(self, host: "ServiceHost") -> None:
        """Register *host* (idempotent per service name), its ``replicas``
        as its share. The pool grows if total shares exceed its slots, so
        pooling is never a capacity cut relative to the fixed split it
        replaces."""
        self.hosts.setdefault(host.service_name, host)
        self.rebalance()

    def detach(self, service_name: str) -> None:
        """Drop a service's host (torn down); its share returns to the
        pool."""
        self.hosts.pop(service_name, None)
        self.rebalance()

    @property
    def total_shares(self) -> int:
        return sum(host.replicas for host in self.hosts.values())

    def rebalance(self) -> None:
        """Grow/shrink the physical slot count to ``max(base_slots,
        total_shares)`` so every host can hold its full share at once."""
        target = max(self.base_slots, self.total_shares)
        current = self.slots.capacity
        if target > current:
            self.slots.grow(target - current)
        elif target < current:
            self.slots.shrink(current - target)

    # -- accounting -------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Requests queued across every attached service — the contention
        signal the balancer and cost model price."""
        return self.slots.queue_length

    def contention(self) -> float:
        """Queued requests per physical slot (0.0 = every request finds a
        free worker immediately)."""
        return self.slots.queue_length / self.slots.capacity

    def utilization(self) -> float:
        """Average busy fraction of the shared slots."""
        return self.slots.utilization()

    def borrow_ratio(self) -> float:
        """Fraction of grants that went beyond the holder's share — how
        much the work-conserving sharing actually bought."""
        if self.total_grants == 0:
            return 0.0
        return self.borrowed_total / self.total_grants

    def stats(self) -> dict[str, Any]:
        return {
            "slots": self.slots.capacity,
            "base_slots": self.base_slots,
            "total_shares": self.total_shares,
            "in_use": self.slots.in_use,
            "backlog": self.backlog,
            "utilization": self.utilization(),
            "total_grants": self.total_grants,
            "borrowed_grants": self.borrowed_total,
            "borrow_ratio": self.borrow_ratio(),
            "shares": {
                name: host.replicas for name, host in self.hosts.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReplicaPool {self.device_name}"
            f" {self.slots.in_use}/{self.slots.capacity} busy,"
            f" {len(self.hosts)} hosts, backlog {self.backlog}>"
        )
