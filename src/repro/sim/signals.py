"""One-shot signals: the synchronization primitive processes wait on.

A :class:`Signal` resolves exactly once, either with a value (:meth:`succeed`)
or an exception (:meth:`fail`). Processes yield signals to suspend until
resolution; plain callbacks can also be attached with :meth:`wait`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError

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
    caller of ``succeed``/``fail``/``wait`` — each gets its own event at the
    current simulated time, so ordering stays deterministic. The two
    exceptions are the kernel's own resolutions, which have no caller to run
    inside (see :meth:`_settle`): a timeout's waiters run in its timer
    event, and the waiters of a process's ``done`` — its joiners — run in
    that process's last event.
    """

    __slots__ = ("kernel", "name", "_state", "_value", "_exc", "_waiters", "_timer_event")

    def __init__(self, kernel: "Kernel", name: str | None = None) -> None:
        self.kernel = kernel
        self.name = name
        self._state = PENDING
        self._value: Any = None
        self._exc: BaseException | None = None
        #: ``(callback, *bound_args)`` per waiter, ready to be scheduled
        self._waiters: list[tuple] = []
        #: Set by Kernel.timeout(): the scheduled event that will fire this
        #: signal, so abandoned timeouts can be cancelled (see cancel_timer).
        self._timer_event = None

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
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Signal":
        """Resolve with an exception and wake all waiters."""
        if self._state != PENDING:
            raise SimulationError(f"signal {self.name!r} already {self._state}")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self._state, self._exc = FAILED, exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        waiters, self._waiters = self._waiters, []
        schedule = self.kernel.schedule
        for waiter in waiters:
            schedule(0.0, *waiter, self._value, self._exc)

    def _fire(self, value: Any) -> None:
        """The timer event of :meth:`Kernel.timeout`, which is the wake-up."""
        if self._state == PENDING:
            self._settle(SUCCEEDED, value, None)

    def _settle(self, state: str, value: Any, exc: BaseException | None) -> None:
        """Resolve from inside the kernel — a timer firing, a process ending
        — and run the waiters inside the event now executing."""
        # The kernel is the caller, so nothing is re-entered and no second
        # event is spent per waiter. The waiters run in registration order
        # off one queue per kernel: a process that ends *during* the drain
        # appends its joiners to that queue (no recursion, so a join chain
        # may be any length) and they run after the waiters already queued.
        # A waiter attached meanwhile finds the signal resolved and is
        # scheduled by wait().
        self._state, self._value, self._exc = state, value, exc
        if not self._waiters:
            return
        kernel = self.kernel
        batch = (iter(self._waiters), value, exc)
        self._waiters = []
        if kernel._waking is not None:  # inside another signal's drain
            kernel._waking.append(batch)
            return
        kernel._waking = [batch]
        batches = iter(kernel._waking)  # by index: sees batches appended meanwhile
        try:
            for batch in batches:
                waiters, value, exc = batch
                for callback, *args in waiters:
                    callback(*args, value, exc)
        finally:  # some are left only if one raised: they still wake
            kernel._waking = None
            for waiters, value, exc in (batch, *batches):
                for waiter in waiters:
                    kernel.schedule(0.0, *waiter, value, exc)

    # -- waiting ------------------------------------------------------------
    def wait(self, callback: Callable[..., None], *args: Any) -> None:
        """Invoke ``callback(*args, value, exc)`` once the signal resolves.

        If it already has, the callback is scheduled (at the current
        simulated time), never called inside this caller. Binding *args*
        spares the waiter a closure, and its wake-up a Python frame.
        """
        if self._state == PENDING:
            self._waiters.append((callback, *args))
        else:
            self.kernel.schedule(0.0, callback, *args, self._value, self._exc)

    def cancel_timer(self) -> None:
        """If this signal is a pending timeout, cancel its underlying event.

        For when its last waiter has abandoned the wait (``interrupt()``):
        an abandoned long timeout must not keep the clock running toward it.
        """
        if self._timer_event is not None and self._state == PENDING:
            self.kernel.cancel(self._timer_event)
            self._timer_event = None

    def discard(self, callback: Callable[..., None]) -> None:
        """Remove a previously attached waiter, if still registered."""
        self._waiters = [w for w in self._waiters if w[0] != callback]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        timer = self._timer_event
        due = "" if timer is None else f" due t={timer.time:.6f}"
        return f"<Signal {self.name or id(self):}{due} {self._state}>"

