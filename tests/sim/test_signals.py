"""Unit tests for one-shot signals."""

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel


@pytest.fixture
def kernel():
    return Kernel()


class TestSignalLifecycle:
    def test_initial_state(self, kernel):
        sig = kernel.signal("s")
        assert sig.pending and not sig.resolved
        assert not sig.succeeded and not sig.failed

    def test_value_of_pending_signal_raises(self, kernel):
        with pytest.raises(SimulationError):
            kernel.signal().value

    def test_succeed_stores_value(self, kernel):
        sig = kernel.signal().succeed(7)
        assert sig.succeeded
        assert sig.value == 7

    def test_fail_stores_exception(self, kernel):
        err = ValueError("boom")
        sig = kernel.signal().fail(err)
        assert sig.failed
        assert sig.exception is err
        with pytest.raises(ValueError):
            sig.value

    def test_double_resolution_rejected(self, kernel):
        sig = kernel.signal().succeed(1)
        with pytest.raises(SimulationError):
            sig.succeed(2)
        with pytest.raises(SimulationError):
            sig.fail(ValueError())

    def test_fail_requires_exception_instance(self, kernel):
        with pytest.raises(TypeError):
            kernel.signal().fail("not an exception")


class TestWaiters:
    def test_waiter_fires_on_success(self, kernel):
        sig = kernel.signal()
        seen = []
        sig.wait(lambda v, e: seen.append((v, e)))
        sig.succeed("x")
        kernel.run()
        assert seen == [("x", None)]

    def test_waiter_attached_after_resolution_still_fires(self, kernel):
        sig = kernel.signal().succeed("x")
        seen = []
        sig.wait(lambda v, e: seen.append(v))
        kernel.run()
        assert seen == ["x"]

    def test_waiters_never_fire_synchronously(self, kernel):
        """Never inside the caller of succeed / fail / wait."""
        sig = kernel.signal()
        seen = []
        sig.wait(lambda v, e: seen.append(v))
        sig.succeed("x")
        assert seen == []  # not yet: fires on next kernel step
        kernel.run()
        assert seen == ["x"]

    def test_discard_removes_waiter(self, kernel):
        sig = kernel.signal()
        seen = []

        def waiter(v, e):
            seen.append(v)

        sig.wait(waiter)
        sig.discard(waiter)
        sig.succeed(1)
        kernel.run()
        assert seen == []

    def test_wait_binds_leading_arguments(self, kernel):
        pending, resolved = kernel.signal(), kernel.signal().succeed("r")
        seen = []
        pending.wait(lambda *got: seen.append(got), "a", 1)
        resolved.wait(lambda *got: seen.append(got), "b")
        pending.fail(error := ValueError("boom"))
        kernel.run()
        assert seen == [("b", "r", None), ("a", 1, None, error)]

    def test_discard_removes_a_waiter_with_bound_arguments(self, kernel):
        sig = kernel.signal()
        seen = []
        sig.wait(seen.append, "bound")
        sig.discard(seen.append)
        sig.succeed(1)
        kernel.run()
        assert seen == []

    def test_repr_names_a_timeout_and_when_it_is_due(self, kernel):
        kernel.schedule(1.0, lambda: None)
        kernel.run()
        assert repr(kernel.timeout(0.5)) == "<Signal timeout due t=1.500000 pending>"
        assert repr(kernel.signal("plain")) == "<Signal plain pending>"

    def test_multiple_waiters_all_fire_in_order(self, kernel):
        sig = kernel.signal()
        seen = []
        sig.wait(lambda v, e: seen.append("first"))
        sig.wait(lambda v, e: seen.append("second"))
        sig.succeed(None)
        kernel.run()
        assert seen == ["first", "second"]


class TestTimerEvent:
    """A timeout's timer event *is* the wake-up: it resolves the signal and
    runs the waiters, in registration order, inside that one event."""

    def test_waiters_run_inside_the_timer_event(self, kernel):
        sig = kernel.timeout(1.0, "rang")
        seen = []
        sig.wait(lambda v, e: seen.append(("first", v, e, kernel.pending_events)))
        sig.wait(lambda *got: seen.append(got), "second")
        assert kernel.pending_events == 1
        assert kernel.step() and not kernel.step()  # one event, all told
        assert seen == [("first", "rang", None, 0), ("second", "rang", None)]
        assert sig.succeeded and kernel.now == 1.0

    def test_a_woken_waiter_runs_at_the_timers_place_in_the_instant(self, kernel):
        """The tie-break: ahead of an event scheduled for the same instant
        after the timer was made but before it fired (it used to run behind)."""
        order = []
        kernel.timeout(1.0).wait(lambda v, e: order.append("woken"))
        kernel.schedule(1.0, order.append, "bystander")
        kernel.run()
        assert order == ["woken", "bystander"]

    def test_a_raising_waiter_does_not_strand_the_rest(self, kernel):
        """The remaining waiters are scheduled before the error leaves
        ``Kernel.step``."""
        sig = kernel.timeout(1.0, "rang")
        seen = []

        def broken(value, exc):
            raise RuntimeError("waiter blew up")

        sig.wait(lambda v, e: seen.append("first"))
        sig.wait(broken)
        sig.wait(lambda *got: seen.append(got), "third")
        sig.wait(lambda *got: seen.append(got), "fourth")
        with pytest.raises(RuntimeError, match="blew up"):
            kernel.run()
        assert seen == ["first"] and sig.succeeded
        assert kernel.pending_events == 2
        kernel.run()
        assert seen == ["first", ("third", "rang", None), ("fourth", "rang", None)]

    def test_a_waiter_attached_during_the_firing_is_scheduled(self, kernel):
        """As for any resolved signal: its own event, not this one."""
        sig = kernel.timeout(1.0, "rang")
        seen = []

        def first(value, exc):
            sig.wait(lambda v, e: seen.append("latecomer"))
            seen.append(("first", kernel.pending_events))

        sig.wait(first)
        sig.wait(lambda v, e: seen.append("second"))
        kernel.step()
        assert seen == [("first", 1), "second"]
        kernel.run()
        assert seen == [("first", 1), "second", "latecomer"]

    def test_a_timeout_resolved_by_hand_wakes_by_events_and_fires_idle(self, kernel):
        sig = kernel.timeout(1.0, "rang")
        seen = []
        sig.wait(lambda v, e: seen.append(v))
        sig.succeed("by hand")
        assert seen == []  # succeed() from ordinary code never runs a waiter
        kernel.run()
        assert seen == ["by hand"] and kernel.now == 1.0  # the timer found it resolved


class TestOneDrainPerEvent:
    """A firing timer and an ending process wake their waiters off one queue
    (``Signal._settle``); everything else still wakes by events."""

    def test_succeed_from_a_waiter_inside_a_drain_is_still_never_inline(self, kernel):
        """Only the kernel's own resolutions run waiters in place: a waiter
        that resolves another signal is ordinary code, drain or no drain."""
        other = kernel.signal()
        seen = []
        other.wait(lambda v, e: seen.append(("other's waiter", v)))

        def first(value, exc):
            other.succeed("by hand")
            seen.append(("first", kernel.pending_events))

        timer = kernel.timeout(1.0)
        timer.wait(first)
        timer.wait(lambda v, e: seen.append("second"))
        kernel.step()
        assert seen == [("first", 1), "second"]
        kernel.run()
        assert seen[-1] == ("other's waiter", "by hand")

    def test_a_raising_waiter_also_wakes_what_an_ended_process_queued(self, kernel):
        """The joiner of a process that ended earlier in the drain sits in
        the same queue, so it too is scheduled before the error leaves."""
        timer = kernel.timeout(1.0)
        log = []

        def broken(value, exc):
            raise RuntimeError("waiter blew up")

        def ends_on_timer():
            yield timer
            return "ended"

        def joiner():
            log.append((yield ending))

        ending = kernel.process(ends_on_timer())
        kernel.process(joiner())
        kernel.run(until=0.5)
        timer.wait(broken)
        timer.wait(lambda v, e: log.append("behind the broken one"))
        with pytest.raises(RuntimeError, match="blew up"):
            kernel.run()
        assert log == [] and ending.done.succeeded and kernel.pending_events == 2
        kernel.run()
        assert log == ["behind the broken one", "ended"]

    def test_a_process_done_resolved_by_hand_wakes_by_events(self, kernel):
        """``done`` is an ordinary signal to ordinary code."""
        seen = []

        def forever():
            yield kernel.signal()

        proc = kernel.process(forever())
        proc.done.wait(lambda v, e: seen.append(v))
        proc.done.succeed("by hand")
        assert seen == [] and not proc.alive
        kernel.run()
        assert seen == ["by hand"]


class TestCancelTimer:
    def test_abandoned_timeout_does_not_hold_the_clock(self, kernel):
        sig = kernel.timeout(100.0)
        sig.cancel_timer()
        kernel.schedule(1.0, lambda: None)
        kernel.run()
        assert kernel.now == 1.0
        assert sig.pending  # cancelled, never fires

    def test_cancel_timer_on_plain_signal_is_noop(self, kernel):
        sig = kernel.signal()
        sig.cancel_timer()  # no timer attached: must not raise
        sig.succeed(1)
        assert sig.value == 1

    def test_cancel_after_resolution_is_noop(self, kernel):
        sig = kernel.timeout(0.5)
        kernel.run()
        assert sig.succeeded
        sig.cancel_timer()  # must not raise
