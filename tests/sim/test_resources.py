"""Unit tests for resources and stores."""

import pytest

from repro.errors import Interrupt, SimulationError
from repro.sim import Kernel, Resource, Store


@pytest.fixture
def kernel():
    return Kernel()


def hold(kernel, resource, duration, log, tag, priority=0):
    """A process that holds one slot for *duration* seconds."""

    def proc():
        grant = yield resource.request(priority=priority)
        log.append((tag, "acquired", kernel.now))
        yield duration
        resource.release(grant)
        log.append((tag, "released", kernel.now))

    return kernel.process(proc(), name=tag)


class TestResource:
    def test_capacity_must_be_positive(self, kernel):
        with pytest.raises(SimulationError):
            Resource(kernel, capacity=0)

    def test_signals_carry_names_built_once_from_the_owner(self, kernel):
        assert Resource(kernel, name="cpu").request().name == "cpu.request"
        assert Resource(kernel).request().name == "resource.request"
        assert Store(kernel, name="inbox").get().name == "inbox.get"

    def test_immediate_grant_when_free(self, kernel):
        res = Resource(kernel, capacity=1)
        sig = res.request()
        assert sig.succeeded  # granted synchronously
        assert res.in_use == 1
        assert res.available == 0

    def test_contention_serializes_holders(self, kernel):
        res = Resource(kernel, capacity=1)
        log = []
        hold(kernel, res, 1.0, log, "a")
        hold(kernel, res, 1.0, log, "b")
        kernel.run()
        assert ("a", "acquired", 0.0) in log
        assert ("b", "acquired", 1.0) in log
        assert kernel.now == 2.0

    def test_capacity_two_runs_in_parallel(self, kernel):
        res = Resource(kernel, capacity=2)
        log = []
        hold(kernel, res, 1.0, log, "a")
        hold(kernel, res, 1.0, log, "b")
        kernel.run()
        acquired = [t for (_, what, t) in log if what == "acquired"]
        assert acquired == [0.0, 0.0]
        assert kernel.now == 1.0

    def test_shrink_validation(self, kernel):
        res = Resource(kernel, capacity=2)
        with pytest.raises(SimulationError):
            res.shrink(0)
        with pytest.raises(SimulationError):
            res.shrink(2)  # would leave zero slots

    def test_shrink_is_lazy_for_busy_slots(self, kernel):
        res = Resource(kernel, capacity=2)
        log = []
        hold(kernel, res, 1.0, log, "a")
        hold(kernel, res, 1.0, log, "b")
        hold(kernel, res, 1.0, log, "c")  # queued behind a and b
        observed = {}

        def shrink_mid_run():
            res.shrink(1)
            # both holders keep their grants past the new capacity
            observed["in_use"] = res.in_use
            observed["capacity"] = res.capacity

        kernel.schedule(0.5, shrink_mid_run)
        kernel.run()
        assert observed == {"in_use": 2, "capacity": 1}
        # the waiter only got the single surviving slot after BOTH released
        assert ("c", "acquired", 1.0) in log
        assert res.in_use == 0

    def test_shrink_then_grow_round_trips(self, kernel):
        res = Resource(kernel, capacity=3)
        res.shrink(2)
        res.grow(1)
        assert res.capacity == 2

    def test_priority_order_served_first(self, kernel):
        res = Resource(kernel, capacity=1)
        log = []
        hold(kernel, res, 1.0, log, "holder")
        hold(kernel, res, 1.0, log, "low", priority=5)
        hold(kernel, res, 1.0, log, "high", priority=1)
        kernel.run()
        order = [tag for (tag, what, _) in log if what == "acquired"]
        assert order == ["holder", "high", "low"]

    def test_fifo_among_equal_priority(self, kernel):
        res = Resource(kernel, capacity=1)
        log = []
        for tag in ["holder", "x", "y", "z"]:
            hold(kernel, res, 1.0, log, tag)
        kernel.run()
        order = [tag for (tag, what, _) in log if what == "acquired"]
        assert order == ["holder", "x", "y", "z"]

    def test_double_release_rejected(self, kernel):
        res = Resource(kernel)
        sig = res.request()
        grant = sig.value
        res.release(grant)
        with pytest.raises(SimulationError):
            res.release(grant)

    def test_release_foreign_grant_rejected(self, kernel):
        res_a = Resource(kernel)
        res_b = Resource(kernel)
        grant = res_a.request().value
        with pytest.raises(SimulationError):
            res_b.release(grant)

    def test_grant_wait_time_measured(self, kernel):
        res = Resource(kernel, capacity=1)
        log = []
        hold(kernel, res, 2.0, log, "holder")
        waits = []

        def waiter():
            grant = yield res.request()
            waits.append(grant.granted_at - grant.requested_at)
            res.release(grant)

        kernel.process(waiter())
        kernel.run()
        assert waits == [2.0]

    def test_utilization_integral(self, kernel):
        res = Resource(kernel, capacity=1)
        log = []
        hold(kernel, res, 1.0, log, "a")

        def end():
            yield 4.0

        kernel.process(end())
        kernel.run()
        # busy 1s of 4s total
        assert res.utilization() == pytest.approx(0.25)

    def test_queue_length_reflects_waiters(self, kernel):
        res = Resource(kernel, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.queue_length == 2

    def test_an_interrupted_requester_gives_up_its_place(self, kernel):
        """The next release goes to the next requester, not to nobody."""
        res = Resource(kernel, capacity=1)
        held = res.request().value
        log = []

        def requester(tag):
            try:
                grant = yield res.request()
            except Interrupt:
                log.append((tag, "interrupted", res.queue_length))
                return
            log.append((tag, "granted", kernel.now))
            res.release(grant)

        quitter = kernel.process(requester("quitter"))
        kernel.process(requester("next"))
        kernel.schedule(1.0, quitter.interrupt)
        kernel.schedule(2.0, res.release, held)
        kernel.run()
        assert log == [("quitter", "interrupted", 1), ("next", "granted", 2.0)]
        assert res.in_use == 0 and res.queue_length == 0

    def test_an_interrupted_requester_keeps_the_queue_in_priority_order(self, kernel):
        res = Resource(kernel, capacity=1)
        held = res.request().value
        order = []

        def requester(tag, priority):
            grant = yield res.request(priority)
            order.append(tag)
            res.release(grant)

        for tag, priority in (("low", 5), ("quitter", 0), ("mid", 3), ("high", 1)):
            proc = kernel.process(requester(tag, priority), name=tag)
            if tag == "quitter":
                kernel.schedule(1.0, proc.interrupt)
        kernel.schedule(2.0, res.release, held)
        kernel.run()
        assert order == ["high", "mid", "low"]


class TestStore:
    def test_put_then_get_immediate(self, kernel):
        store = Store(kernel)
        store.put("item")
        sig = store.get()
        assert sig.succeeded
        assert sig.value == "item"

    def test_get_blocks_until_put(self, kernel):
        store = Store(kernel)
        results = []

        def consumer():
            item = yield store.get()
            results.append((item, kernel.now))

        kernel.process(consumer())
        kernel.schedule(2.0, store.put, "late-item")
        kernel.run()
        assert results == [("late-item", 2.0)]

    def test_fifo_order(self, kernel):
        store = Store(kernel)
        for item in [1, 2, 3]:
            store.put(item)
        assert [store.get().value for _ in range(3)] == [1, 2, 3]

    def test_getters_served_in_order(self, kernel):
        store = Store(kernel)
        first = store.get()
        second = store.get()
        store.put("a")
        store.put("b")
        assert first.value == "a"
        assert second.value == "b"

    def test_len_counts_buffered_items(self, kernel):
        store = Store(kernel)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_an_interrupted_getter_gives_up_its_place(self, kernel):
        """The next item goes to the next getter, not to nobody."""
        store = Store(kernel)
        got = []

        def getter(tag):
            try:
                got.append((tag, (yield store.get())))
            except Interrupt:
                got.append((tag, "interrupted"))

        quitter = kernel.process(getter("quitter"))
        kernel.process(getter("next"))
        kernel.schedule(1.0, quitter.interrupt)
        kernel.schedule(2.0, store.put, "x")
        kernel.run()
        assert got == [("quitter", "interrupted"), ("next", "x")]
        assert len(store) == 0

    def test_a_get_made_now_and_yielded_later_still_receives(self, kernel):
        """Only an abandoned wait withdraws a get: one nobody waits on yet,
        or whose process is interrupted elsewhere, keeps its place."""
        store = Store(kernel)
        got = []

        def consumer():
            pending = store.get()
            try:
                yield 5.0
            except Interrupt:
                pass
            got.append((yield pending))

        proc = kernel.process(consumer())
        kernel.schedule(1.0, proc.interrupt)
        kernel.schedule(2.0, store.put, "kept")
        kernel.run()
        assert got == ["kept"]

    def test_drain_empties_store(self, kernel):
        store = Store(kernel)
        store.put(1)
        store.put(2)
        assert store.drain() == [1, 2]
        assert len(store) == 0
