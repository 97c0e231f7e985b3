"""Pool-based service parallelism: one shared replica pool per device.

The seed design statically partitions a device's worker capacity per
service: every :class:`~repro.services.host.ServiceHost` owns a fixed
:class:`~repro.sim.resources.Resource` of ``replicas`` slots, so a pose
burst queues behind its own host while the activity host's workers idle.
PPipe's observation (PAPERS.md) is that drawing replicas of *different*
service classes from one shared capacity pool beats any fixed split.

:class:`ReplicaPool` owns the device's slots (default: one per CPU core);
each attached host holds a :class:`PoolLease` that is API-compatible with
the ``Resource`` it replaces. A lease has a *share* — the host's fair
number of slots, adjusted by the AutoScaler and the SLO ladder exactly
where they used to add/remove replicas — but the pool is work-conserving:
a host may borrow idle slots beyond its share, and when slots are scarce,
requests from hosts *under* their share are served before requests from
hosts borrowing over it (priority queue on the shared resource).

Crash semantics: a pooled host cannot discard the shared resource, so
:meth:`PoolLease.revoke_pending` bumps an epoch instead — requests granted
after the revocation return their slot straight to the pool, while grants
already held stay owned so the interrupted caller's cleanup can release
them normally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import ServiceError, SimulationError
from ..sim.kernel import Kernel
from ..sim.resources import Grant, Resource
from ..sim.signals import Signal

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.device import Device
    from .host import ServiceHost

#: Priority for a request from a host still under its fair share.
PRI_UNDER_SHARE = 0
#: Priority for a request borrowing beyond the host's share.
PRI_BORROW = 1


class PoolLease:
    """One host's claim on a shared :class:`ReplicaPool`.

    Duck-typed to the ``Resource`` surface :class:`ServiceHost` consumes:
    ``request``/``release``/``owns``, ``capacity`` (= the share, so
    ``host.replicas`` keeps meaning "this host's allocation"),
    ``available``/``in_use``/``queue_length``, ``grow``/``shrink`` (share
    adjusters) and ``utilization()`` (busy integral over the share).
    """

    def __init__(self, pool: "ReplicaPool", service_name: str, share: int) -> None:
        if share < 1:
            raise ServiceError("pool share must be >= 1")
        self.pool = pool
        self.kernel = pool.kernel
        self.service_name = service_name
        self.name = f"{pool.device_name}.{service_name}.lease"
        self.share = share
        self.held = 0
        self._waiting = 0
        #: ids of grants this lease has handed to its host and not yet seen
        #: released; survives revocation so cleanup paths can still release.
        self._owned: set[int] = set()
        self._epoch = 0
        # busy integral over the share, mirroring Resource.utilization()
        self._busy_integral = 0.0
        self._last_change = pool.kernel.now
        self._started = pool.kernel.now
        # statistics
        self.grants_issued = 0
        self.borrowed_grants = 0
        self.revoked_grants = 0

    # -- Resource-compatible introspection ------------------------------------
    @property
    def capacity(self) -> int:
        return self.share

    @property
    def in_use(self) -> int:
        return self.held

    @property
    def available(self) -> int:
        """Slots this host could take right now without queueing: the
        pool's free slots (work-conserving — idle capacity is anyone's)."""
        return self.pool.slots.available

    @property
    def queue_length(self) -> int:
        """Requests from *this* host still waiting for a slot."""
        return self._waiting

    def utilization(self) -> float:
        """Average held-slots over share since the lease was created. Can
        exceed 1.0 while the host borrows beyond its share — exactly the
        signal the AutoScaler reads as "this service needs more share"."""
        elapsed = self.kernel.now - self._started
        if elapsed <= 0:
            return 0.0
        integral = self._busy_integral + self.held * (
            self.kernel.now - self._last_change
        )
        return integral / (elapsed * max(1, self.share))

    def _account(self) -> None:
        now = self.kernel.now
        self._busy_integral += self.held * (now - self._last_change)
        self._last_change = now

    # -- protocol --------------------------------------------------------------
    def request(self, priority: int | None = None) -> Signal:
        """Claim one pool slot; the signal succeeds with the pool's
        :class:`~repro.sim.resources.Grant`. Under-share requests outrank
        borrowing ones when slots are scarce (weighted sharing)."""
        if priority is None:
            priority = (
                PRI_UNDER_SHARE if self.held < self.share else PRI_BORROW
            )
        outer = self.kernel.signal(name=f"{self.name}.request")
        epoch = self._epoch
        self._waiting += 1
        inner = self.pool.slots.request(priority)

        def granted(value: Any, exc: BaseException | None) -> None:
            self._waiting -= 1
            if exc is not None:  # pool resource never fails today; be safe
                if outer.pending:
                    outer.fail(exc)
                return
            grant: Grant = value
            if epoch != self._epoch:
                # the host crashed/closed while this request queued: the
                # requester process is gone, so the slot goes straight back
                self.revoked_grants += 1
                self.pool.slots.release(grant)
                return
            # borrowed is judged at grant time (not request time): the
            # request may have been under-share when issued yet land on a
            # slot beyond the share once earlier grants settle
            borrowing = self.held >= self.share
            self._account()
            self.held += 1
            self._owned.add(grant.id)
            self.grants_issued += 1
            if borrowing:
                self.borrowed_grants += 1
            self.pool.on_grant(self, borrowing)
            if outer.pending:
                outer.succeed(grant)
            else:  # requester abandoned between queue and grant
                self.release(grant)

        if inner.pending:
            inner.wait(granted)
        else:  # a free slot is granted in the call, as Resource.hold's is
            granted(inner.value, None)
        return outer

    def release(self, grant: Grant) -> None:
        """Return a slot to the shared pool."""
        if grant.id not in self._owned:
            raise SimulationError(
                f"grant #{grant.id} was not issued through lease {self.name}"
            )
        self._owned.discard(grant.id)
        self._account()
        self.held -= 1
        self.pool.slots.release(grant)

    def owns(self, grant: Grant) -> bool:
        """True when *grant* was issued through this lease and is still
        held (the guard the host's cleanup paths use)."""
        return grant.id in self._owned

    # -- share adjustment (the AutoScaler / SLO-ladder entry points) ------------
    def grow(self, extra: int = 1) -> None:
        """Raise this host's share; the pool grows if total shares now
        exceed its physical slots (scaling up must add real capacity)."""
        if extra < 1:
            raise SimulationError("grow() requires a positive amount")
        self._account()
        self.share += extra
        self.pool.rebalance()

    def shrink(self, amount: int = 1) -> None:
        """Lower this host's share (lazy, like ``Resource.shrink``: held
        slots drain naturally)."""
        if amount < 1:
            raise SimulationError("shrink() requires a positive amount")
        if self.share - amount < 1:
            raise SimulationError("cannot shrink below one slot")
        self._account()
        self.share -= amount
        self.pool.rebalance()

    # -- failure lifecycle ------------------------------------------------------
    def revoke_pending(self) -> None:
        """Invalidate requests not yet granted (host crash/close): when the
        pool eventually grants them, the slot bounces straight back.
        Already-held grants stay owned — the interrupted callers' cleanup
        still releases them into the pool."""
        self._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PoolLease {self.name} share={self.share} held={self.held}"
            f" waiting={self._waiting}>"
        )


class ReplicaPool:
    """The per-device shared replica pool.

    Args:
        kernel: the simulation kernel.
        device_name: owning device (leases never cross devices).
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
        #: service name -> lease, in attach order.
        self.leases: dict[str, PoolLease] = {}
        # statistics
        self.total_grants = 0
        self.borrowed_total = 0

    @classmethod
    def for_device(cls, kernel: Kernel, device: "Device",
                   slots: int | None = None) -> "ReplicaPool":
        """A pool sized to *device* (one slot per core by default)."""
        return cls(kernel, device.name, slots or device.spec.cores)

    # -- membership -------------------------------------------------------------
    def attach(self, host: "ServiceHost", share: int | None = None) -> PoolLease:
        """Create (or return) the lease for *host*'s service, with *share*
        defaulting to the host's configured replica count. The pool grows
        if total shares exceed its slots, so pooling is never a capacity
        cut relative to the fixed split it replaces."""
        name = host.service_name
        existing = self.leases.get(name)
        if existing is not None:
            return existing
        lease = PoolLease(self, name, share or host.replicas)
        self.leases[name] = lease
        self.rebalance()
        return lease

    def detach(self, service_name: str) -> None:
        """Drop a service's lease (host torn down); its share returns to
        the pool."""
        self.leases.pop(service_name, None)
        self.rebalance()

    @property
    def total_shares(self) -> int:
        return sum(lease.share for lease in self.leases.values())

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
    def on_grant(self, lease: PoolLease, borrowed: bool) -> None:
        self.total_grants += 1
        if borrowed:
            self.borrowed_total += 1

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
                name: lease.share for name, lease in self.leases.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReplicaPool {self.device_name}"
            f" {self.slots.in_use}/{self.slots.capacity} busy,"
            f" {len(self.leases)} leases, backlog {self.backlog}>"
        )
