"""The shared replica pool: weighted work-conserving slot sharing.

Every test drives real :class:`ServiceHost`s attached to one
:class:`ReplicaPool`: a host's ``replicas`` is its share, and its
dispatches take their slots straight from ``pool.slots``.
"""

import pytest

from repro.errors import ServiceError
from repro.services import FunctionService, ServiceHost
from repro.services.pool import ReplicaPool


def echo_service(name="pose", cost=0.050):
    return FunctionService(name, lambda payload, ctx: payload,
                           reference_cost_s=cost)


def attached(home, pool, name="pose", replicas=1, port=None):
    host = ServiceHost(home.kernel, home.desktop, echo_service(name),
                       home.transport, replicas=replicas, port=port)
    host.attach_pool(pool)
    return host


def probe_at(home, delay, read):
    """Run the home to quiescence; return what *read()* saw *delay* from
    now."""
    seen = {}
    home.kernel.schedule(delay, lambda: seen.update(read()))
    home.kernel.run()
    return seen


class FakeHost:
    service_name = "pose"
    replicas = 2


class TestLeaseBasics:
    def test_pooled_host_reads_its_own_gauges(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 4)
        pose = attached(home, pool, replicas=2)
        other = attached(home, pool, "activity", port=7901)
        for _ in range(5):
            other.call_local({})
        seen = probe_at(home, 0.010, lambda: {
            "pose": (pose.busy_workers, pose.queue_length),
            "other": (other.busy_workers, other.queue_length)})
        assert pose.replicas == 2  # the share, not the pool's size
        # the other host borrows all four slots beyond its share of one
        assert seen == {"pose": (0, 0), "other": (4, 1)}
        assert pose.utilization() == 0.0
        assert other.utilization() > 1.0

    def test_grant_and_release_roundtrip(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 2)
        host = attached(home, pool)
        done = host.call_local({})
        seen = probe_at(home, 0.010, lambda: {
            "busy": host.busy_workers, "in_use": pool.slots.in_use})
        assert done.succeeded
        assert seen == {"busy": 1, "in_use": 1}
        assert host.busy_workers == 0 and pool.slots.in_use == 0

    def test_share_must_be_positive(self, home):
        with pytest.raises(ServiceError):
            ServiceHost(home.kernel, home.desktop, echo_service(),
                        home.transport, replicas=0)


class TestWorkConservation:
    def test_host_borrows_idle_slots_beyond_share(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 3)
        host = attached(home, pool)
        calls = [host.call_local({}) for _ in range(3)]
        seen = probe_at(home, 0.010, lambda: {"busy": host.busy_workers})
        assert all(call.succeeded for call in calls)
        assert seen == {"busy": 3}  # share is 1, but idle slots are anyone's
        assert pool.borrowed_total == 2
        assert pool.borrow_ratio() == pytest.approx(2 / 3)

    def test_under_share_outranks_borrower_when_scarce(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 2)
        greedy = attached(home, pool)
        fair = attached(home, pool, "activity", port=7901)
        resolved = []

        def call(host, tag):
            host.call_local({}).wait(lambda value, exc: resolved.append(tag))

        call(greedy, "first")
        home.kernel.schedule(0.010, call, greedy, "borrowed")  # pool full
        # both queue: greedy would borrow again, fair is under its share
        home.kernel.schedule(0.011, call, greedy, "greedy")
        home.kernel.schedule(0.012, call, fair, "fair")
        seen = probe_at(home, 0.013, lambda: {"backlog": pool.backlog})
        assert seen == {"backlog": 2}
        # the first slot to free goes to fair despite FIFO
        assert resolved == ["first", "borrowed", "fair", "greedy"]
        # borrowing is judged at the grant: greedy's last call found its
        # share free again
        assert pool.borrowed_total == 1


class TestShareAdjustment:
    def test_grow_raises_share_and_pool_capacity(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 2)
        pose = attached(home, pool, replicas=2)
        pose.add_replica(2)
        assert pose.replicas == 4
        assert pool.stats()["shares"] == {"pose": 4}
        assert pool.slots.capacity == 4  # scaling up adds real capacity

    def test_shrink_returns_share_but_keeps_base_slots(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 2)
        pose = attached(home, pool, replicas=4)
        assert pool.slots.capacity == 4
        pose.remove_replica(3)
        assert pose.replicas == 1
        assert pool.slots.capacity == 2  # never below the device's cores

    def test_shrink_below_one_rejected(self, home):
        pose = attached(home, ReplicaPool(home.kernel, "desktop", 2))
        with pytest.raises(ServiceError, match="below one replica"):
            pose.remove_replica(1)

    def test_utilization_can_exceed_one_while_borrowing(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 3)
        host = attached(home, pool)
        for _ in range(3):
            host.call_local({})
        seen = probe_at(home, 0.040, lambda: {"util": host.utilization()})
        assert seen["util"] > 1.0


class TestReplicaPool:
    def test_attach_is_idempotent_per_service(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 4)
        first = FakeHost()
        pool.attach(first)
        pool.attach(FakeHost())
        assert pool.hosts == {"pose": first}
        assert pool.total_shares == 2

    def test_detach_returns_the_share(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 1)
        pool.attach(FakeHost())
        assert pool.slots.capacity == 2
        pool.detach("pose")
        assert pool.total_shares == 0
        assert pool.slots.capacity == 1

    def test_contention_counts_queued_per_slot(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 2)
        host = attached(home, pool, replicas=2)
        host.call_local({})
        host.call_local({})
        assert probe_at(home, 0.001, lambda: {
            "contention": pool.contention()}) == {"contention": 0.0}
        for _ in range(3):
            host.call_local({})
        assert probe_at(home, 0.001, lambda: {
            "contention": pool.contention()}) == {"contention": 0.5}

    def test_stats_shape(self, home):
        pool = ReplicaPool(home.kernel, "desktop", 2)
        stats = pool.stats()
        assert stats["slots"] == 2
        assert stats["total_grants"] == 0
        assert stats["borrow_ratio"] == 0.0
