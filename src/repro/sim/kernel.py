"""The discrete-event kernel and its wall-clock variant.

:class:`Kernel` executes scheduled events in deterministic time order.
:class:`RealtimeKernel` runs the same event queue but paces execution against
the wall clock, which lets the exact same pipeline code drive either fast
deterministic benchmarks or live demonstrations.
"""

from __future__ import annotations

import time as _time
from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError
from .events import NORMAL, Event
from .process import Process, ProcessGenerator
from .signals import Signal


class Kernel:
    """A deterministic discrete-event executor.

    Time is a float in **seconds** starting at 0.0. All library components
    (links, CPUs, services, module runtimes) schedule their work through a
    shared kernel, which is what makes whole-system simulations reproducible.
    """

    #: Set to True by the realtime subclass; components may consult this to
    #: decide whether to do real work (e.g. rendering) inline.
    realtime = False

    def __init__(self) -> None:
        self._now = 0.0
        # (time, priority, seq, event) entries, so heapq orders them in C:
        # seq is unique, so a comparison is settled before it reaches the
        # Event. Cancellation is lazy — a cancelled entry stays until it
        # surfaces — and _live counts the entries that are not cancelled.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._live = 0
        self._seq = 0
        self._running = False
        self._stopped = False
        # the wake-ups still to run inside the event now executing, while a
        # timer or a process end drains its waiters (Signal._settle)
        self._waking = None
        # passive observers notified on schedule/execute; a tuple so the hot
        # path pays one truthiness check when nobody is watching
        self._observers: tuple = ()

    # -- time -----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Events still queued to run (cancelled ones are not counted)."""
        return self._live

    # -- observation ------------------------------------------------------------
    def add_observer(self, observer: Any) -> None:
        """Register a passive observer: ``on_schedule(now, event)`` is called
        after every :meth:`schedule`, ``on_execute(now, event)`` before every
        event's callback runs. Observers must never mutate kernel state —
        they exist for auditing and determinism checking, and an observed
        run is bit-for-bit identical to an unobserved one."""
        if observer not in self._observers:
            self._observers = self._observers + (observer,)

    def remove_observer(self, observer: Any) -> None:
        """Unregister an observer (no-op when not registered)."""
        self._observers = tuple(o for o in self._observers if o is not observer)

    # -- scheduling -------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN, which no ordering survives
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        self._seq = seq = self._seq + 1
        time = self._now + delay
        event = Event(time, priority, seq, callback, args)
        heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        if self._observers:
            for observer in self._observers:
                observer.on_schedule(self._now, event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op if it already ran or was already
        cancelled)."""
        if not (event.cancelled or event.popped):
            event.cancelled = True
            self._live -= 1

    # -- factories ---------------------------------------------------------------
    def signal(self, name: str | None = None) -> Signal:
        """Create a pending one-shot :class:`Signal` bound to this kernel."""
        return Signal(self, name)

    def timeout(self, delay: float, value: Any = None) -> Signal:
        """Return a signal that succeeds with *value* after *delay* seconds."""
        # the timer event is the wake-up: the waiters run inside it
        sig = Signal(self, "timeout")
        sig._timer_event = self.schedule(delay, sig._fire, value)
        return sig

    def process(self, gen: ProcessGenerator, name: str | None = None) -> Process:
        """Start a generator as a simulated :class:`Process`."""
        return Process(self, gen, name)

    # -- execution -----------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest event. Returns False if none remain."""
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if not event.cancelled:
                break
        else:
            return False
        event.popped = True
        self._live -= 1
        if self._observers:
            # notified before the monotonicity check so an auditor records
            # the violation even when the kernel aborts the run
            for observer in self._observers:
                observer.on_execute(self._now, event)
        if event.time < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = event.time
        event.callback(*event.args)
        return True

    def _run_events(self, horizon: float | None, signal: Signal | None = None) -> None:
        """The one next-event loop, behind :meth:`run` and
        :meth:`run_until_resolved`: step until :meth:`stop`, until *signal*
        (when given) resolves, until the heap drains, or until the next
        event lies beyond *horizon*. The caller tells these apart from
        ``_stopped``, the signal and ``_live``."""
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        realtime = self.realtime
        try:
            while not self._stopped and (signal is None or signal.pending):
                while heap and heap[0][3].cancelled:
                    heappop(heap)
                if not heap or (horizon is not None and heap[0][0] > horizon):
                    break
                if realtime:
                    self._wait_until(heap[0][0])
                self.step()
        finally:
            self._running = False

    def run(self, until: float | None = None) -> float:
        """Run events until the queue drains or simulated time reaches *until*.

        Returns the simulated time at which execution stopped. When *until*
        is given and the run was not cut short by :meth:`stop`, the clock is
        advanced exactly to *until* (never moved back).
        """
        self._run_events(until)
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def run_until_resolved(self, signal: Signal, limit: float | None = None) -> Any:
        """Run until *signal* resolves; return its value (or raise its error).

        ``limit`` bounds simulated time; exceeding it raises
        :class:`SimulationError`, as does a drained queue or a :meth:`stop`
        that leaves the signal pending.
        """
        self._run_events(limit, signal)
        if signal.pending:
            if self._stopped:
                raise SimulationError("kernel stopped before signal resolved")
            if not self._live:
                raise SimulationError("event queue drained before signal resolved")
            raise SimulationError(f"signal unresolved at time limit {limit}")
        return signal.value

    def stop(self) -> None:
        """Request that the running :meth:`run` or :meth:`run_until_resolved`
        loop return after the current event."""
        self._stopped = True

    def _wait_until(self, sim_time: float) -> None:
        """Hook for realtime pacing, called before each event when
        ``realtime`` is set; the pure simulator advances instantly."""


class RealtimeKernel(Kernel):
    """A kernel that paces event execution against the wall clock.

    ``speed`` scales simulated seconds to wall seconds (2.0 = twice as fast
    as real time). Execution overruns — events that take longer to process
    than the available wall time — are tolerated: the kernel simply stops
    sleeping and runs as fast as it can, like SimPy's strict=False mode.
    """

    realtime = True

    def __init__(self, speed: float = 1.0) -> None:
        super().__init__()
        if speed <= 0:
            raise SimulationError("realtime speed must be positive")
        self.speed = speed
        self._wall_start: float | None = None
        self._sim_start = 0.0

    def _wait_until(self, sim_time: float) -> None:
        if self._wall_start is None:
            self._wall_start = _time.monotonic()
            self._sim_start = self._now
        deadline = self._wall_start + (sim_time - self._sim_start) / self.speed
        remaining = deadline - _time.monotonic()
        if remaining > 0:
            _time.sleep(remaining)
