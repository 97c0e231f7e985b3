"""``Resource.hold``: request a slot, hold it for a duration, release it,
then call the hold's continuation — all in the hold's one timer event
(docs/PERF.md "What is an event", mechanism 4, and "A wait with one waiter
is a call"). ``tests/sim/test_properties.py`` fuzzes the same rule against
the reference executor."""

import pytest

from repro.sim import Kernel, Resource

from ..outcomes import Outcome


@pytest.fixture
def kernel():
    return Kernel()


def run_counting(kernel):
    """Run until the queue drains; return the number of events executed."""
    executed = 0
    while kernel.step():
        executed += 1
    return executed


class TestHold:
    def test_an_uncontended_hold_costs_exactly_one_event(self, kernel):
        pool = Resource(kernel, capacity=1)
        held = Outcome(kernel)
        pool.hold(0.5, held)
        assert pool.in_use == 1  # requested and granted in the call
        assert kernel.pending_events == 1
        assert run_counting(kernel) == 1
        assert held.value == 0.5 and kernel.now == 0.5 and pool.in_use == 0

    def test_a_zero_duration_hold_is_still_one_event(self, kernel):
        held = Outcome(kernel)
        Resource(kernel).hold(0.0, held)
        assert not held.done  # never called inside the caller
        assert run_counting(kernel) == 1
        assert held.value == 0.0

    def test_a_queued_grant_costs_one_wake_plus_one_timer(self, kernel):
        pool = Resource(kernel, capacity=1)
        queued = Outcome(kernel)
        pool.hold(1.0, Outcome(kernel))
        pool.hold(1.0, queued)
        assert pool.queue_length == 1
        # the first hold's timer; the queued grant's wake-up and its timer
        assert run_counting(kernel) == 3
        assert kernel.now == 2.0 and queued.value == 1.0

    def test_priority_then_first_come(self, kernel):
        pool = Resource(kernel, capacity=1)
        served = []

        def note(tag, _value, _exc):
            served.append((tag, kernel.now))

        pool.hold(1.0, Outcome(kernel))
        for tag, priority in [("low", 5), ("high-a", 1), ("high-b", 1), ("mid", 3)]:
            pool.hold(1.0, note, tag, priority=priority)
        kernel.run()
        assert served == [("high-a", 2.0), ("high-b", 3.0), ("mid", 4.0), ("low", 5.0)]

    def test_the_continuation_gets_the_duration_and_its_bound_arguments(self, kernel):
        pool = Resource(kernel, capacity=2)
        held = Outcome(kernel)
        pool.hold(0.25, held, "short")
        pool.hold(0.75, held, "long", 2)
        kernel.run()
        assert held.calls == [(0.25, None, 0.25, ("short",)),
                              (0.75, None, 0.75, ("long", 2))]

    def test_the_waiters_run_inside_the_timer_event(self, kernel):
        pool = Resource(kernel, capacity=1)
        seen = []
        joined = kernel.signal()
        joined.wait(lambda value, _exc: seen.append(
            ("joined", value, kernel.pending_events)))

        def then(tag, value, _exc):
            seen.append((tag, value, pool.in_use, kernel.pending_events))
            joined.succeed(tag)  # a hand-off made here joins the drain

        pool.hold(1.0, then, "a")
        kernel.schedule(1.0, seen.append, "scheduled after the call")
        kernel.run()
        # the continuation in the timer's event, the slot already released
        # and the event scheduled after the call still to come: the timer
        # has the seq of the call
        assert seen == [("a", 1.0, 0, 1), ("joined", "a", 1),
                        "scheduled after the call"]
