"""Event primitives for the discrete-event kernel.

An :class:`Event` is a callback scheduled at an absolute simulated time.
Events at the same time are ordered by ``priority`` (lower runs first) and
then by insertion sequence, which makes execution fully deterministic. The
ordering itself lives with the heap, in :class:`repro.sim.kernel.Kernel`.
"""

from __future__ import annotations

from typing import Any, Callable

#: Priority for urgent events (e.g. interrupts) that must run before normal
#: events scheduled at the same instant.
URGENT = 0
#: Default priority for ordinary events.
NORMAL = 1
#: Priority for housekeeping events that should run after everything else
#: at the same instant (e.g. metric flushes).
LOW = 2


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Kernel.schedule`; user
    code only ever holds them to :meth:`cancel <repro.sim.kernel.Kernel.cancel>`
    them. ``popped`` is set once the kernel has taken the event off its heap
    to run it, which is what makes cancelling a past event a no-op.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "popped")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.popped = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} p={self.priority} {name}{state}>"
