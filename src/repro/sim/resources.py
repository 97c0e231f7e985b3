"""Contended resources for the discrete-event kernel.

:class:`Resource` models a fixed pool of identical slots (e.g. CPU cores or
service worker threads). :meth:`Resource.request` hands out a
:class:`~repro.sim.signals.Signal` a process can ``yield`` on;
:meth:`Resource.hold` is "request a slot, hold it for a duration, release
it" with neither a process nor a signal behind it, only its continuation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from ..errors import SimulationError
from .kernel import Kernel
from .signals import Signal, wake


class Grant:
    """A handle proving ownership of one resource slot.

    Returned (as the signal value) by :meth:`Resource.request`; must be given
    back to :meth:`Resource.release` exactly once.
    """

    __slots__ = ("resource", "id", "released", "requested_at", "granted_at")

    def __init__(self, resource: "Resource", grant_id: int, now: float) -> None:
        self.resource = resource
        self.id = grant_id
        self.released = False
        self.requested_at = now
        self.granted_at: float | None = None

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
        self._last_change = self._started = kernel.now
        #: holds run to their end and the seconds they held, counted in each
        #: hold's timer event, so in completion order
        self.holds_completed = 0
        self.held_seconds = 0.0

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
        grant = Grant(self, next(self._ids), self.kernel.now)
        if self._in_use < self.capacity and not self._waiting:
            self._issue(sig, grant)
        else:
            # a heap keyed on (priority, id): priority order with FIFO
            # tie-break, without re-sorting the queue on every request
            heapq.heappush(self._waiting, (priority, grant.id, sig, grant))
            sig._source = self
        return sig

    def _withdraw(self, sig: Signal) -> None:
        """``sig.abandon()``: an interrupted requester leaves the queue."""
        self._waiting = [entry for entry in self._waiting if entry[2] is not sig]
        heapq.heapify(self._waiting)

    def hold(self, duration: float, then: Callable[..., None], *args: Any,
             priority: int = 0) -> None:
        """Hold one slot for *duration* seconds, release it, then call
        ``then(*args, duration, None)`` — a waiter's shape — in the timer's
        event, after the release, as :func:`~repro.sim.signals.wake` calls
        a timeout's waiters. A free slot is taken and the timer armed in
        the call; a queued request costs the one wake-up its grant
        schedules. A caller that must ``yield`` on the job passes a resolver
        of its own signal as *then*.
        """
        if self._in_use < self.capacity and not self._waiting:
            now = self.kernel.now
            self._busy_integral += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self.kernel.schedule(duration, self._held, then, args, duration)
        else:
            self.request(priority).wait(self._granted, then, args, duration)

    def _granted(self, then: Callable[..., None], args: tuple, duration: float,
                 _grant: Grant, _exc) -> None:
        self.kernel.schedule(duration, self._held, then, args, duration)

    def _held(self, then: Callable[..., None], args: tuple, duration: float) -> None:
        self._vacate()
        self.holds_completed += 1
        self.held_seconds += duration
        wake(self.kernel, ((then, args),), duration, None)

    def owns(self, grant: Grant) -> bool:
        """True when *grant* was issued by this resource and is still held.

        The guard cleanup paths use before releasing: a grant from a
        discarded pre-crash pool (or another resource entirely) must not be
        returned here."""
        return grant.resource is self and not grant.released

    def release(self, grant: Grant) -> None:
        """Return a slot to the pool and wake the next waiter, if any."""
        if grant.resource is not self:
            raise SimulationError("grant belongs to a different resource")
        if grant.released:
            raise SimulationError(f"grant #{grant.id} released twice")
        grant.released = True
        self._vacate()

    def _vacate(self) -> None:
        # free one slot, and grant it to the first queued request, if any
        now = self.kernel.now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now
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
