"""Unit tests for event ordering and the kernel's event heap.

The heap and its live count belong to :class:`Kernel` (there is no separate
queue object), so the queue's behaviours are checked through the kernel's
own surface: ``schedule``, ``cancel``, ``step``, ``run`` and
``pending_events``.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel
from repro.sim.events import LOW, NORMAL, URGENT


class TestEventOrdering:
    def test_earlier_time_first(self):
        k, seen = Kernel(), []
        k.schedule(2.0, seen.append, "late")
        k.schedule(1.0, seen.append, "early")
        k.run()
        assert seen == ["early", "late"]

    def test_priority_breaks_time_ties(self):
        k, seen = Kernel(), []
        k.schedule(1.0, seen.append, "low", priority=LOW)
        k.schedule(1.0, seen.append, "normal", priority=NORMAL)
        k.schedule(1.0, seen.append, "urgent", priority=URGENT)
        k.run()
        assert seen == ["urgent", "normal", "low"]

    def test_sequence_breaks_full_ties(self):
        k, seen = Kernel(), []
        first = k.schedule(1.0, seen.append, "first")
        second = k.schedule(1.0, seen.append, "second")
        assert first.seq < second.seq
        k.run()
        assert seen == ["first", "second"]

    def test_callbacks_are_never_compared(self):
        """The entry's unique ``seq`` settles every comparison before it
        could reach the Event, which defines no ordering at all."""
        k = Kernel()
        event = k.schedule(1.0, lambda: None)
        with pytest.raises(TypeError):
            event < k.schedule(1.0, lambda: None)
        k.run()  # and the heap never needed one
        assert k.now == 1.0


class TestEventQueue:
    def test_starts_empty(self):
        k = Kernel()
        assert k.pending_events == 0
        assert k.step() is False
        assert k.now == 0.0

    def test_pop_empty_raises(self):
        k = Kernel()
        assert k.step() is False  # stepping an empty heap is not an error...
        with pytest.raises(SimulationError, match="drained"):
            k.run_until_resolved(k.signal())  # ...waiting on one is

    def test_pop_returns_in_order(self):
        k, times = Kernel(), []
        for delay in (3.0, 1.0, 2.0):
            k.schedule(delay, lambda: times.append(k.now))
        while k.step():
            pass
        assert times == [1.0, 2.0, 3.0]

    def test_cancelled_events_are_skipped(self):
        k, seen = Kernel(), []
        first = k.schedule(1.0, seen.append, "first")
        k.schedule(2.0, seen.append, "second")
        k.cancel(first)
        assert k.pending_events == 1
        assert k.step() is True
        assert seen == ["second"]
        assert k.pending_events == 0

    def test_cancel_twice_counts_once(self):
        k = Kernel()
        event = k.schedule(1.0, lambda: None)
        k.cancel(event)
        k.cancel(event)
        assert k.pending_events == 0

    def test_peek_time_skips_cancelled(self):
        """The horizon is tested on the earliest *live* event."""
        k, seen = Kernel(), []
        first = k.schedule(1.0, seen.append, "first")
        k.schedule(5.0, seen.append, "second")
        k.cancel(first)
        assert k.run(until=3.0) == 3.0
        assert seen == []
        assert k.pending_events == 1

    def test_peek_does_not_remove(self):
        k, seen = Kernel(), []
        k.schedule(1.0, seen.append, "x")
        k.run(until=0.5)
        assert seen == []
        assert k.pending_events == 1
        k.run()
        assert seen == ["x"]
