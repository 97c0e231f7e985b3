"""Unit tests for generator-based processes."""

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import Kernel


@pytest.fixture
def kernel():
    return Kernel()


class TestBasicExecution:
    def test_return_value_resolves_done(self, kernel):
        def proc():
            yield 1.0
            return "result"

        p = kernel.process(proc())
        kernel.run()
        assert p.done.value == "result"
        assert kernel.now == 1.0

    def test_yield_number_is_timeout(self, kernel):
        def proc():
            yield 0.25
            yield 0.75

        kernel.process(proc())
        kernel.run()
        assert kernel.now == 1.0

    def test_yield_signal_receives_value(self, kernel):
        sig = kernel.signal()
        results = []

        def proc():
            value = yield sig
            results.append(value)

        kernel.process(proc())
        kernel.schedule(1.0, sig.succeed, "payload")
        kernel.run()
        assert results == ["payload"]

    def test_failed_signal_raises_inside_process(self, kernel):
        sig = kernel.signal()

        def proc():
            try:
                yield sig
            except RuntimeError as e:
                return f"caught {e}"

        p = kernel.process(proc())
        kernel.schedule(1.0, sig.fail, RuntimeError("boom"))
        kernel.run()
        assert p.done.value == "caught boom"

    def test_escaping_exception_fails_done(self, kernel):
        def proc():
            yield 1.0
            raise ValueError("oops")

        p = kernel.process(proc())
        kernel.run()
        assert p.done.failed
        assert isinstance(p.done.exception, ValueError)

    def test_yield_process_joins_it(self, kernel):
        def child():
            yield 2.0
            return "child-result"

        def parent():
            result = yield kernel.process(child())
            return result

        p = kernel.process(parent())
        kernel.run()
        assert p.done.value == "child-result"
        assert kernel.now == 2.0

    def test_yield_invalid_object_fails_process(self, kernel):
        def proc():
            yield "not awaitable"

        p = kernel.process(proc())
        kernel.run()
        assert p.done.failed
        assert isinstance(p.done.exception, SimulationError)

    def test_requires_generator(self, kernel):
        with pytest.raises(SimulationError):
            kernel.process(lambda: None)

    def test_alive_reflects_lifecycle(self, kernel):
        def proc():
            yield 1.0

        p = kernel.process(proc())
        assert p.alive
        kernel.run()
        assert not p.alive

    def test_starts_at_current_time_not_immediately(self, kernel):
        order = []

        def proc():
            order.append(("start", kernel.now))
            yield 0.0

        kernel.schedule(5.0, lambda: kernel.process(proc()))
        kernel.run()
        assert order == [("start", 5.0)]


    def test_wakeups_are_events_of_the_process_itself(self, kernel):
        """A wait costs no closure: the event that wakes a process calls
        ``Process._resume`` with the epoch as an argument, so observers that
        sort events by ``callback.__module__`` (the ledger's per-layer event
        count) and by owner name (EventTap labels) still see the process."""
        executed = []

        class Tap:
            def on_schedule(self, now, event):
                pass

            def on_execute(self, now, event):
                executed.append(event.callback)

        def worker():
            yield 0.1
            yield kernel.signal().succeed("x")

        kernel.add_observer(Tap())
        proc = kernel.process(worker(), name="worker-7")
        kernel.run()
        wakeups = [cb for cb in executed if getattr(cb, "__self__", None) is proc]
        assert len(wakeups) == 3  # start, after the timeout, after the signal
        assert {cb.__module__ for cb in executed} == {
            "repro.sim.process", "repro.sim.kernel"}
        assert proc.done.name == "process.done" and "worker-7" in repr(proc)


class TestInterrupt:
    def test_interrupt_raises_in_process(self, kernel):
        causes = []

        def proc():
            try:
                yield 100.0
            except Interrupt as intr:
                causes.append(intr.cause)
            return "survived"

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt, "reason")
        kernel.run()
        assert causes == ["reason"]
        assert p.done.value == "survived"
        assert kernel.now == 1.0  # long timeout abandoned

    def test_unhandled_interrupt_fails_process(self, kernel):
        def proc():
            yield 100.0

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt)
        kernel.run()
        assert p.done.failed
        assert isinstance(p.done.exception, Interrupt)

    def test_interrupt_after_completion_is_noop(self, kernel):
        def proc():
            yield 1.0

        p = kernel.process(proc())
        kernel.run()
        p.interrupt()  # must not raise
        kernel.run()
        assert p.done.succeeded

    def test_stale_wakeup_after_interrupt_is_dropped(self, kernel):
        sig = kernel.signal()
        resumed = []

        def proc():
            try:
                value = yield sig
                resumed.append(value)
            except Interrupt:
                yield 10.0  # keep living after the interrupt
            return "ok"

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt)
        kernel.schedule(2.0, sig.succeed, "late")  # resolves the abandoned wait
        kernel.run()
        assert resumed == []  # the abandoned wait never delivered
        assert p.done.value == "ok"
