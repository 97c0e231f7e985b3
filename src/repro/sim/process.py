"""Generator-based simulated processes.

A process is an ordinary Python generator that ``yield``s awaitables to
suspend itself:

* a :class:`~repro.sim.signals.Signal` — resume when it resolves (the yield
  expression evaluates to the signal's value; a failed signal raises inside
  the generator);
* another :class:`Process` — resume when that process terminates (join);
* a number — shorthand for ``kernel.timeout(number)``.

A process runs until it has to wait: an awaitable that is already resolved
costs no event (its outcome goes straight back in at the ``yield``), only a
pending one parks the process. ``yield 0.0`` makes a pending timeout, so it
is the way to let everything else due now run first. When the generator
returns or raises, that same event resolves :attr:`Process.done` and runs
its waiters — the processes joined on it and plain ``wait()`` callbacks, in
registration order: a process's last event is its joiners' wake-up.

Example::

    def worker(kernel, cpu):
        grant = yield cpu.request()
        yield 0.050                      # hold the CPU for 50 ms
        cpu.release(grant)
        return "done"

    proc = kernel.process(worker(kernel, cpu))
    kernel.run()
    assert proc.done.value == "done"
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..errors import Interrupt, SimulationError
from .events import URGENT
from .signals import FAILED, PENDING, SUCCEEDED, Signal

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A running simulated process wrapping a generator.

    Attributes:
        done: a :class:`Signal` that resolves with the generator's return
            value, or fails with the exception that escaped it.
    """

    __slots__ = ("kernel", "name", "_gen", "done", "_epoch", "_waiting_on")

    def __init__(self, kernel: "Kernel", gen: ProcessGenerator, name: str | None = None) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        self.kernel = kernel
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.done = Signal(kernel, "process.done")
        #: Incremented on every resume; stale wakeups from abandoned waits
        #: (e.g. after an interrupt) carry an older epoch and are dropped.
        self._epoch = 0
        self._waiting_on: Signal | None = None
        kernel.schedule(0.0, self._resume, self._epoch, None, None)

    # -- state ---------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.done.pending

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"

    # -- control -------------------------------------------------------------
    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The process resumes (urgently, at the current simulated time) with the
        interrupt raised at its current ``yield``. Interrupting a terminated
        process is a no-op.
        """
        if not self.alive:
            return
        waiting = self._waiting_on
        if waiting is not None and waiting.pending:
            waiting.discard(self._resume)  # no dead waiter stays behind
            if not waiting._waiters:
                waiting.cancel_timer()  # abandoned timeouts must not hold the clock
        self._epoch += 1
        self._waiting_on = None
        self.kernel.schedule(
            0.0, self._resume, self._epoch, None, Interrupt(cause), priority=URGENT)

    # -- engine --------------------------------------------------------------
    def _resume(self, epoch: int, value: Any, exc: BaseException | None) -> None:
        if epoch != self._epoch or self.done._state != PENDING:
            return  # stale wakeup (process was interrupted or already ended)
        self._waiting_on = None
        gen = self._gen
        while True:  # run until the generator has to wait
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                # this event is the process's last: it wakes the joiners
                self.done._settle(SUCCEEDED, stop.value, None)
                return
            except Exception as error:  # an unhandled Interrupt included
                self.done._settle(FAILED, None, error)
                return
            try:
                signal = target if isinstance(target, Signal) else self._as_signal(target)
            except SimulationError as error:
                # An invalid yield: deliver the error back at the offending
                # yield so the process can handle (or die from) it.
                value, exc = None, error
                continue
            if signal._state == PENDING:
                # the epoch rides along as an event argument: the wakeup
                # calls _resume directly, with no per-wait closure in between
                self._epoch = epoch = self._epoch + 1
                self._waiting_on = signal
                signal._waiters.append((self._resume, epoch))
                return
            # already resolved: nobody to wait for, so no event — the
            # outcome goes straight back in at the yield
            value, exc = signal._value, signal._exc

    def _as_signal(self, target: Any) -> Signal:
        if isinstance(target, Process):
            return target.done
        if isinstance(target, (int, float)):
            return self.kernel.timeout(float(target))
        raise SimulationError(
            f"process {self.name!r} yielded {target!r}; expected a Signal, "
            "a Process, or a number of seconds"
        )
