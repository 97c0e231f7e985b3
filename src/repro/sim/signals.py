"""One-shot signals: the synchronization primitive processes wait on.

A :class:`Signal` resolves exactly once, either with a value (:meth:`succeed`)
or an exception (:meth:`fail`). Processes yield signals to suspend until
resolution; plain callbacks can also be attached with :meth:`wait`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"


class Signal:
    """A one-shot resolvable event.

    Waiter callbacks receive ``(value, exc)`` — after any arguments bound
    at :meth:`wait` — and exactly one of the two is meaningful depending on
    whether the signal succeeded or failed. Waiters never run inside the
    caller of ``succeed``/``fail``/``wait``. The kernel's own resolutions
    have no caller to run inside (see :func:`wake`): the waiters of a
    timeout run in its timer event, and the waiters of a process's ``done``
    — its joiners — run in that process's last event; that event's
    *drain*. A signal resolved while a drain runs — by a waiter it woke —
    queues its waiters at the back of that drain, so they run in the same
    event once the caller has returned. Resolved anywhere else, each
    waiter gets its own event at the current simulated time.

    A wait with one waiter needs no signal: a CPU job
    (:meth:`~repro.sim.resources.Resource.hold`) and a transfer
    (:meth:`~repro.net.topology.Topology.transfer`) take their continuation
    and :func:`wake` it in their own last event.
    """

    __slots__ = ("kernel", "name", "_state", "_value", "_exc", "_waiters", "_source")

    def __init__(self, kernel: "Kernel", name: str | None = None) -> None:
        self.kernel = kernel
        self.name = name
        self._state = PENDING
        self._value: Any = None
        self._exc: BaseException | None = None
        #: ``(callback, bound_args)`` per waiter
        self._waiters: list[tuple] = []
        #: What resolves this signal unless abandon() takes it back: the timer
        #: event of a Kernel.timeout(), or the Resource it queues in.
        self._source = None

    # -- introspection -----------------------------------------------------
    @property
    def pending(self) -> bool:
        return self._state == PENDING

    @property
    def resolved(self) -> bool:
        return self._state != PENDING

    @property
    def succeeded(self) -> bool:
        return self._state == SUCCEEDED

    @property
    def failed(self) -> bool:
        return self._state == FAILED

    @property
    def value(self) -> Any:
        """The success value; raises if the signal is pending or failed."""
        if self._state == SUCCEEDED:
            return self._value
        if self._state == FAILED:
            raise self._exc  # set by fail()
        raise SimulationError(f"signal {self.name!r} is still pending")

    @property
    def exception(self) -> BaseException | None:
        return self._exc

    # -- resolution ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Signal":
        """Resolve successfully with *value* and wake all waiters."""
        if self._state != PENDING:
            raise SimulationError(f"signal {self.name!r} already {self._state}")
        self._state, self._value = SUCCEEDED, value
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            hand_off(self.kernel, waiters, value, None)
        return self

    def fail(self, exc: BaseException) -> "Signal":
        """Resolve with an exception and wake all waiters."""
        if self._state != PENDING:
            raise SimulationError(f"signal {self.name!r} already {self._state}")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._state, self._exc = FAILED, exc
        waiters, self._waiters = self._waiters, []
        hand_off(self.kernel, waiters, None, exc)
        return self

    def _fire(self, value: Any) -> None:
        """The timer event of :meth:`Kernel.timeout`, which is the wake-up."""
        # the event holds this bound method, so keeping the event would make
        # every fired timeout a cycle only the cyclic collector frees
        self._source = None
        if self._state == PENDING:
            self._settle(SUCCEEDED, value, None)

    def _settle(self, state: str, value: Any, exc: BaseException | None) -> None:
        """Resolve from inside the kernel — a timer firing, a process ending
        — and :func:`wake` the waiters inside the event now executing."""
        self._state, self._value, self._exc = state, value, exc
        waiters, self._waiters = self._waiters, []
        if waiters:
            wake(self.kernel, waiters, value, exc)

    # -- waiting ------------------------------------------------------------
    def wait(self, callback: Callable[..., None], *args: Any) -> None:
        """Invoke ``callback(*args, value, exc)`` once the signal resolves.

        If it already has, the callback is scheduled (at the current
        simulated time), never called inside this caller. Binding *args*
        spares the waiter a closure, and its wake-up a Python frame.
        """
        if self._state == PENDING:
            self._waiters.append((callback, args))
        else:
            self.kernel.schedule(0.0, callback, *args, self._value, self._exc)

    def abandon(self) -> None:
        """Take a pending signal back from whatever was to resolve it.

        For when its last waiter has abandoned the wait (``interrupt()``):
        an abandoned timeout must not keep the clock running toward it, and
        an abandoned ``Resource.request()`` must not be handed the next
        slot.
        """
        source = self._source
        if source is not None and self._state == PENDING:
            self._source = None
            if isinstance(source, Event):
                self.kernel.cancel(source)
            else:
                source._withdraw(self)

    def discard(self, callback: Callable[..., None]) -> None:
        """Remove a previously attached waiter, if still registered."""
        self._waiters = [w for w in self._waiters if w[0] != callback]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        timer = self._source
        due = f" due t={timer.time:.6f}" if isinstance(timer, Event) else ""
        return f"<Signal {self.name or id(self):}{due} {self._state}>"


def wake(kernel: "Kernel", waiters, value: Any, exc: BaseException | None) -> None:
    """Call *waiters* (``(callback, bound_args)`` each) with ``(value,
    exc)`` inside the event now executing: the kernel's own resolutions — a
    timer, a process's end, a hold's timer, a transfer's arrival — have no
    caller to run inside, so nothing is re-entered and no second event is
    spent per waiter.

    The waiters run in order off one queue per kernel, the *drain*: a
    hand-off made during it — a process that ends, a signal resolved or a
    process started by a waiter, or a second :func:`wake` — is appended to
    that queue (no recursion, so a chain may be any length) and runs after
    the waiters already queued. A waiter attached meanwhile finds its
    signal resolved and is scheduled by :meth:`Signal.wait`."""
    if kernel._waking is not None:  # inside another drain: join it
        return kernel._waking.append((iter(waiters), value, exc))
    kernel._waking = [(iter(waiters), value, exc)]
    batches = iter(kernel._waking)  # by index: sees batches appended meanwhile
    try:
        for waiters, value, exc in batches:
            for callback, args in waiters:
                callback(*args, value, exc)
    except BaseException:  # the waiters left behind a raise still wake
        kernel._waking = None
        for waiters, value, exc in ((waiters, value, exc), *batches):
            hand_off(kernel, waiters, value, exc)
        raise
    kernel._waking = None


def hand_off(kernel: "Kernel", waiters, value: Any, exc: BaseException | None) -> None:
    """Wake *waiters* (``(callback, bound_args)`` each) with ``(value,
    exc)``: at the back of the drain now running (:func:`wake`), if one
    is, else by one zero-delay event each."""
    if kernel._waking is not None:
        kernel._waking.append((iter(waiters), value, exc))
    else:
        for callback, args in waiters:
            kernel.schedule(0.0, callback, *args, value, exc)
