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
        """What an event is, per kind of wait. The start and every wake-up
        from a pending signal that is *neither a timer nor a process's end*
        are events whose callback is the process's own ``Process._resume`` —
        observers that sort events by ``callback.__module__`` (the ledger's
        per-layer event count) and by owner name (EventTap labels) still see
        the process. A timeout wake-up is the timer's event, a join wake-up
        is the ended process's last event, a resolved yield is no event."""
        executed = []

        class Tap:
            def on_schedule(self, now, event):
                pass

            def on_execute(self, now, event):
                executed.append(event.callback)

        gate = kernel.signal("gate")
        steps = []

        def worker():
            steps.append("started")
            yield 0.1
            steps.append("timer")
            yield kernel.signal().succeed("x")
            steps.append("resolved")
            yield gate
            steps.append("gate")
            return "finished"

        def joiner():
            steps.append(("joined", (yield proc)))

        kernel.add_observer(Tap())
        proc = kernel.process(worker(), name="worker-7")
        waiting = kernel.process(joiner())
        kernel.schedule(0.2, gate.succeed)
        kernel.run()
        assert steps == ["started", "timer", "resolved", "gate", ("joined", "finished")]
        own = [cb for cb in executed if getattr(cb, "__self__", None) is proc]
        assert len(own) == 2  # the start, and the wake-up from the gate
        assert {cb.__func__ for cb in own} == {type(proc)._resume}
        # the joiner owns its start only: the worker's last event woke it
        assert [cb.__self__ for cb in executed].count(waiting) == 1
        assert executed[-1].__self__ is proc
        # two starts, the 0.1 s timer (which woke the worker), gate.succeed,
        # the worker's wake-up (which ended it and woke the joiner)
        assert len(executed) == 5
        assert {cb.__module__ for cb in executed} == {
            "repro.sim.process", "repro.sim.signals"}
        assert proc.done.name == "process.done" and "worker-7" in repr(proc)


class TestRunsUntilItHasToWait:
    """A resolved awaitable costs no event: its outcome goes straight back
    in at the yield, and the process parks only on something pending."""

    def count_events(self, kernel):
        count = 0
        while kernel.step():
            count += 1
        return count

    def test_resolved_signals_continue_in_the_same_event(self, kernel):
        seen = []

        def proc():
            seen.append((yield kernel.signal().succeed("a")))
            seen.append((yield kernel.signal().succeed("b")))
            return "end"

        p = kernel.process(proc())
        assert self.count_events(kernel) == 1  # the start event did it all
        assert seen == ["a", "b"] and p.done.value == "end"

    def test_resolved_failed_signal_is_thrown_in_at_the_yield(self, kernel):
        def proc():
            try:
                yield kernel.signal().fail(RuntimeError("boom"))
            except RuntimeError as error:
                return f"caught {error}"

        p = kernel.process(proc())
        assert self.count_events(kernel) == 1
        assert p.done.value == "caught boom"

    def test_yielding_a_finished_process_returns_its_value_at_once(self, kernel):
        def child():
            return "child-result"
            yield

        def parent(joined):
            return (yield joined), kernel.pending_events

        joined = kernel.process(child())
        kernel.run()
        p = kernel.process(parent(joined))
        assert self.count_events(kernel) == 1
        assert p.done.value == ("child-result", 0)

    def test_yielding_a_failed_process_raises_its_error_at_once(self, kernel):
        def child():
            raise ValueError("oops")
            yield

        def parent(joined):
            try:
                yield joined
            except ValueError as error:
                return str(error)

        joined = kernel.process(child())
        kernel.run()
        p = kernel.process(parent(joined))
        assert self.count_events(kernel) == 1
        assert p.done.value == "oops"

    def test_invalid_yield_after_an_inline_continuation(self, kernel):
        """Still delivered back as SimulationError at the offending yield."""
        def proc():
            yield kernel.signal().succeed()
            try:
                yield "not awaitable"
            except SimulationError as error:
                caught = str(error)
            yield kernel.signal().succeed()
            return caught

        p = kernel.process(proc())
        assert self.count_events(kernel) == 1
        assert "not awaitable" in p.done.value

    def test_negative_delay_is_an_invalid_yield(self, kernel):
        def proc():
            try:
                yield -1.0
            except SimulationError:
                return "caught"

        p = kernel.process(proc())
        kernel.run()
        assert p.done.value == "caught"

    def test_yield_zero_still_yields_the_floor(self, kernel):
        """``yield 0.0`` makes a pending timeout, so it costs one event and
        lets everything else due now run first: two processes alternate."""
        order = []

        def proc(tag):
            for n in range(3):
                order.append((tag, n))
                yield 0.0

        kernel.process(proc("a"))
        kernel.process(proc("b"))
        kernel.run()
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
        assert kernel.now == 0.0

    def test_resolved_yields_do_not_return_to_the_kernel(self, kernel):
        """stop() and run(until=) are checked between events: a process that
        only ever yields resolved signals finishes inside its one event."""
        ticks = []

        def proc():
            for n in range(5):
                ticks.append(n)
                if n == 1:
                    kernel.stop()
                yield kernel.signal().succeed()
            yield 1.0
            ticks.append("after the horizon")

        kernel.process(proc())
        kernel.run(until=0.5)
        assert ticks == [0, 1, 2, 3, 4]  # stop() took effect after the event
        assert kernel.now == 0.0
        kernel.run(until=0.5)
        assert ticks == [0, 1, 2, 3, 4] and kernel.now == 0.5
        kernel.run()
        assert ticks[-1] == "after the horizon"


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


    def test_interrupt_of_a_process_that_never_parks_on_resolved_signals(self, kernel):
        """A live process is either running or parked on something pending.
        While it runs (only its own code can reach interrupt() then) there is
        no wait to abandon and the interrupt is dropped at its next wait, as
        it always was; from outside it lands on the pending wait."""
        log = []

        def proc():
            yield kernel.signal().succeed()
            me.interrupt("self")
            yield kernel.signal().succeed()  # no wait, so nothing to interrupt
            log.append("still running")
            try:
                yield 5.0
            except Interrupt as intr:
                log.append(intr.cause)
            return "ok"

        me = kernel.process(proc())
        kernel.schedule(1.0, lambda: me.interrupt("outside"))
        kernel.run()
        assert log == ["still running", "outside"]
        assert me.done.value == "ok" and kernel.now == 1.0

    def test_a_timer_waiter_interrupts_a_later_waiter_of_the_same_timer(self, kernel):
        """Both are woken inside the one timer event; the stale-epoch check
        drops the later wake-up and the interrupt is what it sees."""
        shared = kernel.timeout(1.0, "rang")
        log = []

        def early():
            log.append(("early", (yield shared)))
            late_proc.interrupt("from early")

        def late():
            try:
                log.append(("late", (yield shared)))
            except Interrupt as intr:
                log.append(("late interrupted", intr.cause))

        kernel.process(early())
        late_proc = kernel.process(late())
        kernel.run()
        assert log == [("early", "rang"), ("late interrupted", "from early")]

    def test_interrupt_leaves_a_shared_timeout_to_its_other_waiters(self, kernel):
        """interrupt() used to cancel the timer under everyone."""
        shared = kernel.timeout(1.0, "rang")

        def waiter():
            try:
                return (yield shared)
            except Interrupt:
                return "interrupted"

        first, second = kernel.process(waiter()), kernel.process(waiter())
        kernel.schedule(0.5, first.interrupt)
        kernel.run()
        assert first.done.value == "interrupted"
        assert second.done.value == "rang" and kernel.now == 1.0

    def test_last_waiter_to_leave_cancels_the_timeout(self, kernel):
        shared = kernel.timeout(100.0)

        def waiter():
            try:
                yield shared
            except Interrupt:
                pass

        first, second = kernel.process(waiter()), kernel.process(waiter())
        kernel.schedule(0.5, first.interrupt)
        kernel.schedule(0.75, second.interrupt)
        kernel.run()
        assert kernel.now == 0.75 and shared.pending

    def test_interrupted_process_leaves_no_waiter_behind(self, kernel):
        """The abandoned wait used to stay on the signal for its lifetime and
        cost one dropped wake-up event when it finally resolved."""
        sig = kernel.signal()

        def proc():
            try:
                yield sig
            except Interrupt:
                pass

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt)
        kernel.run()
        assert not p.alive and len(sig._waiters) == 0
        sig.succeed("late")
        assert kernel.pending_events == 0  # no event for the dead wait


class TestLastEventWakesJoiners:
    """When the generator returns or raises, that event resolves ``done`` and
    runs its waiters — joined processes and plain callbacks, in registration
    order — the way a timer's event runs the timeout's waiters."""

    def executed(self, kernel):
        count = 0
        while kernel.step():
            count += 1
        return count

    def test_joiners_and_callbacks_run_in_registration_order_in_that_event(self, kernel):
        log = []

        def target():
            yield 1.0
            return "value"

        def joiner(tag):
            log.append((tag, (yield proc), kernel.pending_events))

        proc = kernel.process(target())
        kernel.process(joiner("first"))
        kernel.run(until=0.5)  # both have started; only the timer is left
        assert kernel.pending_events == 1
        proc.done.wait(lambda *got: log.append(got), "callback")
        kernel.process(joiner("third"))
        # the third joiner's start, then the timer: it ends the target, which
        # wakes all three inside that event
        assert self.executed(kernel) == 2
        assert log == [("first", "value", 0), ("callback", "value", None),
                       ("third", "value", 0)]

    def test_a_join_wakeup_runs_at_the_ended_process_place_in_the_instant(self, kernel):
        """The tie-break: ahead of an event scheduled for the same instant
        before the process ended (the joiner used to run behind it)."""
        order = []

        def target():
            yield 1.0

        def joiner():
            yield proc
            order.append("joiner")

        proc = kernel.process(target())
        kernel.process(joiner())
        kernel.run(until=0.0)  # the target's timer is made: seq before the bystander's
        kernel.schedule(1.0, order.append, "bystander")
        kernel.run()
        assert order == ["joiner", "bystander"]

    def test_a_failed_process_throws_into_its_joiners_in_the_same_event(self, kernel):
        def target():
            yield 1.0
            raise RuntimeError("died")

        def joiner():
            try:
                yield proc
            except RuntimeError as error:
                return f"caught {error} at {kernel.now}"

        proc = kernel.process(target())
        waiting = kernel.process(joiner())
        assert self.executed(kernel) == 3  # two starts and the timer
        assert waiting.done.value == "caught died at 1.0"

    def test_a_process_that_fails_with_no_joiner_is_silent(self, kernel):
        def target():
            yield 1.0
            raise RuntimeError("nobody is listening")

        proc = kernel.process(target())
        assert kernel.run() == 1.0  # nothing raised out of the kernel
        assert proc.done.failed and kernel.pending_events == 0
        with pytest.raises(RuntimeError, match="nobody"):
            proc.done.value

    def test_a_raising_callback_does_not_strand_the_joiners_behind_it(self, kernel):
        """They are scheduled before the error leaves ``Kernel.step``."""
        log = []

        def target():
            yield 1.0
            return "value"

        def joiner(tag):
            log.append((tag, (yield proc)))

        def broken(value, exc):
            raise RuntimeError("waiter blew up")

        proc = kernel.process(target())
        kernel.process(joiner("before"))
        kernel.run(until=0.5)
        proc.done.wait(broken)
        late = kernel.process(joiner("after"))
        kernel.run(until=0.75)
        proc.done.wait(lambda *got: log.append(got), "callback")
        with pytest.raises(RuntimeError, match="blew up"):
            kernel.run()
        assert log == [("before", "value")] and proc.done.succeeded
        assert kernel.pending_events == 2 and late.alive
        kernel.run()  # and the next drain starts clean
        assert log == [("before", "value"), ("after", "value"),
                       ("callback", "value", None)]

    def test_a_joiner_interrupts_a_later_joiner_of_the_same_process(self, kernel):
        """Both are woken inside the one event; the stale-epoch check drops
        the later wake-up and the interrupt is what that joiner sees."""
        log = []

        def target():
            yield 1.0
            return "value"

        def early():
            log.append(("early", (yield proc)))
            late_proc.interrupt("from early")

        def late():
            try:
                log.append(("late", (yield proc)))
            except Interrupt as intr:
                log.append(("late interrupted", intr.cause))

        proc = kernel.process(target())
        kernel.process(early())
        late_proc = kernel.process(late())
        kernel.run()
        assert log == [("early", "value"), ("late interrupted", "from early")]

    def test_a_waiter_attached_to_done_during_the_drain_is_scheduled(self, kernel):
        """As for any resolved signal: its own event, not this one."""
        seen = []

        def target():
            yield 1.0

        def first(value, exc):
            proc.done.wait(lambda v, e: seen.append("latecomer"))
            seen.append(("first", kernel.pending_events))

        proc = kernel.process(target())
        proc.done.wait(first)
        proc.done.wait(lambda v, e: seen.append("second"))
        assert self.executed(kernel) == 3  # start, timer (+ both), latecomer
        assert seen == [("first", 1), "second", "latecomer"]

    def test_a_process_ending_inside_a_timers_firing_queues_behind_it(self, kernel):
        """One queue per event: the joiner of a process that ends while a
        timer's waiters are being run goes behind the waiters still to come."""
        shared = kernel.timeout(1.0)
        log = []

        def waits_for_timer(tag):
            yield shared
            log.append(tag)

        def joiner():
            yield first
            log.append("joiner of first")

        first = kernel.process(waits_for_timer("first"))
        kernel.process(joiner())
        kernel.process(waits_for_timer("second"))
        assert self.executed(kernel) == 4  # three starts, one timer event
        assert log == ["first", "second", "joiner of first"]

    def test_a_joiner_interrupted_while_parked_on_a_process(self, kernel):
        """Its waiter is discarded; ``done`` has no timer to cancel, so the
        process it waited for runs on."""
        def target():
            yield 1.0
            return "value"

        def joiner():
            try:
                yield proc
            except Interrupt:
                return "interrupted"

        proc = kernel.process(target())
        waiting = kernel.process(joiner())
        kernel.schedule(0.5, waiting.interrupt)
        kernel.run(until=0.75)
        assert waiting.done.value == "interrupted" and proc.done._waiters == []
        assert kernel.run() == 1.0 and proc.done.value == "value"

    def test_stop_and_the_horizon_are_checked_between_events(self, kernel):
        """A joiner that stops the kernel ends the run after this event; the
        other joiners, part of the same event, have run."""
        log = []

        def target():
            yield 1.0

        def stopper():
            yield proc
            kernel.stop()
            log.append("stopper")

        def other():
            yield proc
            log.append("other")
            yield 0.0
            log.append("next event")

        proc = kernel.process(target())
        kernel.process(stopper())
        kernel.process(other())
        assert kernel.run(until=5.0) == 1.0
        assert log == ["stopper", "other"]
        assert kernel.run(until=5.0) == 5.0 and log[-1] == "next event"

    def test_run_until_resolved_takes_a_process_done(self, kernel):
        def target():
            yield 1.0
            return "value"

        def dies():
            yield 2.0
            raise RuntimeError("died")

        proc = kernel.process(target())
        kernel.run(until=0.0)
        kernel.schedule(1.0, lambda: None)  # same instant, behind the timer
        assert kernel.run_until_resolved(proc.done) == "value"
        assert kernel.pending_events == 1  # the loop stopped at the resolution
        with pytest.raises(RuntimeError, match="died"):
            kernel.run_until_resolved(kernel.process(dies()).done)

    def test_a_2000_deep_join_chain_ends_in_one_event(self, kernel):
        """No recursion: each ending process queues its joiner instead of
        calling it from inside its own ``_resume``."""
        depth = 2000

        def link(previous):
            return (yield previous) + 1

        def root():
            yield 1.0
            return 0

        proc = kernel.process(root())
        for _ in range(depth):
            proc = kernel.process(link(proc))
        assert self.executed(kernel) == (depth + 1) + 1  # the starts, one timer
        assert proc.done.value == depth and kernel.now == 1.0
