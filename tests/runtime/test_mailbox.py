"""The module mailbox: a FIFO that hands the next event to an idle worker."""

import pytest

from repro.runtime.moduleruntime import Mailbox
from repro.sim import Kernel


@pytest.fixture
def kernel():
    return Kernel()


class Worker:
    """An idle worker as the mailbox sees it: a waiter-shaped wake-up."""

    def __init__(self, kernel, mailbox):
        self.kernel, self.mailbox, self.got = kernel, mailbox, []

    def park(self):
        self.mailbox._idle = ((self.take, ()),)

    def take(self, event, exc):
        self.got.append((event, exc, self.kernel.now))


class TestQueue:
    def test_fifo_order(self, kernel):
        mailbox = Mailbox(kernel)
        for event in [1, 2, 3]:
            mailbox.put(event)
        assert mailbox.drain() == [1, 2, 3]

    def test_len_counts_queued_events(self, kernel):
        mailbox = Mailbox(kernel)
        assert len(mailbox) == 0
        mailbox.put(1)
        mailbox.put(2)
        assert len(mailbox) == 2

    def test_drain_empties_the_mailbox(self, kernel):
        mailbox = Mailbox(kernel)
        mailbox.put(1)
        mailbox.put(2)
        assert mailbox.drain() == [1, 2]
        assert len(mailbox) == 0 and mailbox.drain() == []


class TestIdleWorker:
    def test_a_put_hands_the_idle_worker_the_event_in_one_event(self, kernel):
        mailbox = Mailbox(kernel)
        worker = Worker(kernel, mailbox)
        worker.park()
        kernel.schedule(2.0, mailbox.put, "late")
        kernel.run()
        assert worker.got == [("late", None, 2.0)]
        assert len(mailbox) == 0

    def test_only_the_first_put_wakes_the_worker(self, kernel):
        """Once handed an event the worker is busy: later puts queue."""
        mailbox = Mailbox(kernel)
        worker = Worker(kernel, mailbox)
        worker.park()
        mailbox.put("a")
        mailbox.put("b")
        assert kernel.pending_events == 1
        kernel.run()
        assert worker.got == [("a", None, 0.0)]
        assert mailbox.drain() == ["b"]

    def test_a_put_made_during_a_drain_joins_it(self, kernel):
        """Handed over inside a timer's drain, the event costs no event."""
        mailbox = Mailbox(kernel)
        worker = Worker(kernel, mailbox)
        worker.park()
        timer = kernel.timeout(1.0)
        timer.wait(lambda _value, _exc: mailbox.put("x"))
        kernel.run()
        assert worker.got == [("x", None, 1.0)]
        assert kernel._seq == 1  # the timer's event only
