"""Contended resources for the discrete-event kernel.

:class:`Resource` models a fixed pool of identical slots (e.g. CPU cores or
service worker threads); :class:`Store` is an unbounded FIFO hand-off queue
(used for mailboxes). Both hand out :class:`~repro.sim.signals.Signal`
objects so processes can ``yield`` on them.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any

from ..errors import SimulationError
from .kernel import Kernel
from .signals import Signal


class Grant:
    """A handle proving ownership of one resource slot.

    Returned (as the signal value) by :meth:`Resource.request`; must be given
    back to :meth:`Resource.release` exactly once.
    """

    __slots__ = ("resource", "id", "priority", "released", "requested_at", "granted_at")

    def __init__(self, resource: "Resource", grant_id: int, priority: int, now: float) -> None:
        self.resource = resource
        self.id = grant_id
        self.priority = priority
        self.released = False
        self.requested_at = now
        self.granted_at: float | None = None

    @property
    def wait_time(self) -> float:
        """Seconds spent queued before the grant was issued."""
        if self.granted_at is None:
            raise SimulationError("grant not yet issued")
        return self.granted_at - self.requested_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "released" if self.released else "held"
        return f"<Grant #{self.id} {state}>"


class Resource:
    """A pool of ``capacity`` identical slots with a priority request queue.

    Requests with lower ``priority`` values are served first; ties are FIFO.
    Utilization accounting is integrated over time so benchmarks can report
    average busy fraction.
    """

    def __init__(self, kernel: Kernel, capacity: int = 1, name: str | None = None) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name or "resource"
        self._request_name = f"{self.name}.request"
        self._ids = itertools.count(1)
        self._in_use = 0
        self._waiting: list[tuple[int, int, Signal, Grant]] = []
        # utilization integral bookkeeping
        self._busy_integral = 0.0
        self._last_change = kernel.now
        self._started = kernel.now

    # -- introspection -------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def utilization(self) -> float:
        """Average fraction of capacity busy since the resource was created."""
        elapsed = self.kernel.now - self._started
        if elapsed <= 0:
            return 0.0
        integral = self._busy_integral + self._in_use * (self.kernel.now - self._last_change)
        return integral / (elapsed * self.capacity)

    def _account(self) -> None:
        now = self.kernel.now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now

    # -- protocol -------------------------------------------------------------
    def request(self, priority: int = 0) -> Signal:
        """Request one slot; the returned signal succeeds with a :class:`Grant`."""
        sig = Signal(self.kernel, self._request_name)
        grant = Grant(self, next(self._ids), priority, self.kernel.now)
        if self._in_use < self.capacity and not self._waiting:
            self._issue(sig, grant)
        else:
            # a heap keyed on (priority, id): priority order with FIFO
            # tie-break, without re-sorting the queue on every request
            heapq.heappush(self._waiting, (priority, grant.id, sig, grant))
        return sig

    def owns(self, grant: Grant) -> bool:
        """True when *grant* was issued by this resource and is still held.

        The guard cleanup paths use before releasing: a grant from a
        discarded pre-crash pool (or another resource entirely) must not be
        returned here. :class:`~repro.services.pool.PoolLease` duck-types
        this for leased grants."""
        return grant.resource is self and not grant.released

    def release(self, grant: Grant) -> None:
        """Return a slot to the pool and wake the next waiter, if any."""
        if grant.resource is not self:
            raise SimulationError("grant belongs to a different resource")
        if grant.released:
            raise SimulationError(f"grant #{grant.id} released twice")
        grant.released = True
        self._account()
        self._in_use -= 1
        if self._waiting and self._in_use < self.capacity:
            _, _, sig, next_grant = heapq.heappop(self._waiting)
            self._issue(sig, next_grant)

    def grow(self, extra: int = 1) -> None:
        """Add capacity at runtime (used by service autoscaling) and serve
        as many queued waiters as the new slots allow."""
        if extra < 1:
            raise SimulationError("grow() requires a positive amount")
        self._account()
        self.capacity += extra
        while self._waiting and self._in_use < self.capacity:
            _, _, sig, grant = heapq.heappop(self._waiting)
            self._issue(sig, grant)

    def shrink(self, amount: int = 1) -> None:
        """Remove capacity at runtime (service scale-down). Lazy: busy
        slots are not revoked, so ``in_use`` may transiently exceed the new
        capacity; the pool converges as holders release (``release`` only
        wakes waiters while ``in_use < capacity``)."""
        if amount < 1:
            raise SimulationError("shrink() requires a positive amount")
        if self.capacity - amount < 1:
            raise SimulationError("cannot shrink below one slot")
        self._account()
        self.capacity -= amount

    def _issue(self, sig: Signal, grant: Grant) -> None:
        self._account()
        self._in_use += 1
        grant.granted_at = self.kernel.now
        sig.succeed(grant)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name} {self._in_use}/{self.capacity} busy,"
            f" {len(self._waiting)} queued>"
        )


class Store:
    """An unbounded FIFO store of items, with blocking ``get``.

    ``put`` never blocks (the store is used as a mailbox where senders must
    not stall); ``get`` returns a signal that succeeds with the next item,
    immediately if one is buffered.
    """

    def __init__(self, kernel: Kernel, name: str | None = None) -> None:
        self.kernel = kernel
        self.name = name or "store"
        self._get_name = f"{self.name}.get"
        self._items: deque[Any] = deque()
        self._getters: deque[Signal] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*, waking the oldest waiting getter if present."""
        while self._getters:
            sig = self._getters.popleft()
            if sig.pending:  # skip abandoned/interrupted getters
                sig.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Signal:
        """Return a signal that succeeds with the next item (FIFO)."""
        sig = Signal(self.kernel, self._get_name)
        if self._items:
            sig.succeed(self._items.popleft())
        else:
            self._getters.append(sig)
        return sig

    def drain(self) -> list[Any]:
        """Remove and return all buffered items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items
