"""Service hosts drawing workers from the shared device pool."""

import pytest

from repro.errors import ServiceError
from repro.services import FunctionService, ServiceHost
from repro.services.pool import ReplicaPool


def echo_service(name="echo", cost=0.010):
    return FunctionService(name, lambda payload, ctx: payload,
                           reference_cost_s=cost)


def pooled_host(home, service, slots=2, replicas=1):
    pool = home.desktop.enable_replica_pool(slots=slots)
    host = ServiceHost(home.kernel, home.desktop, service, home.transport,
                       replicas=replicas)
    host.attach_pool(pool)
    return host, pool


class TestAttachment:
    def test_attach_swaps_workers_for_a_lease(self, home):
        host, pool = pooled_host(home, echo_service())
        assert host.pool is pool
        assert host.workers is pool.slots  # dispatches draw pool slots
        assert host.replicas == 1  # replicas now reads the pool share
        assert pool.hosts == {"echo": host}

    def test_attach_rejects_cross_device_pool(self, home):
        foreign = ReplicaPool(home.kernel, "phone", 2)
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport)
        with pytest.raises(ServiceError, match="device"):
            host.attach_pool(foreign)

    def test_attach_rejects_busy_host(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(cost=0.050),
                           home.transport)
        host.call_local({})
        pool = ReplicaPool(home.kernel, "desktop", 2)
        captured = {}

        def attempt():  # mid-call: a worker is busy
            try:
                host.attach_pool(pool)
            except ServiceError as exc:
                captured["error"] = exc

        home.kernel.schedule(0.010, attempt)
        home.kernel.run()
        assert "idle" in str(captured["error"])

    def test_attach_is_idempotent_for_the_same_pool(self, home):
        host, pool = pooled_host(home, echo_service())
        host.attach_pool(pool)
        assert host.pool is pool

    def test_enable_replica_pool_attaches_existing_hosts(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport)
        home.desktop.service_hosts["echo"] = host
        pool = home.desktop.enable_replica_pool(slots=4)
        assert host.pool is pool


class TestPooledExecution:
    def test_two_services_share_the_device_slots(self, home):
        """The pooled win: one busy service borrows the other's idle slot."""
        pool = home.desktop.enable_replica_pool(slots=2)
        busy = ServiceHost(home.kernel, home.desktop,
                           echo_service("busy", cost=0.050), home.transport,
                           port=7901)
        idle = ServiceHost(home.kernel, home.desktop,
                           echo_service("idle", cost=0.050), home.transport,
                           port=7902)
        busy.attach_pool(pool)
        idle.attach_pool(pool)
        first = busy.call_local({})
        second = busy.call_local({})
        home.kernel.run()
        assert first.succeeded and second.succeeded
        # share is 1 each, but the idle host's slot was borrowed: parallel
        assert home.kernel.now < 0.080
        assert pool.borrowed_total == 1

    def test_fixed_split_baseline_serializes(self, home):
        """Without the pool the same load runs one-at-a-time."""
        host = ServiceHost(home.kernel, home.desktop,
                           echo_service(cost=0.050), home.transport,
                           replicas=1)
        first = host.call_local({})
        second = host.call_local({})
        home.kernel.run()
        assert first.succeeded and second.succeeded
        assert home.kernel.now >= 0.090

    def test_autoscaler_grow_path_raises_share(self, home):
        host, pool = pooled_host(home, echo_service(), slots=2)
        host.add_replica(2)  # what AutoScaler/SLO ladder actuate
        assert host.replicas == 3
        assert pool.stats()["shares"] == {"echo": 3}
        assert pool.slots.capacity == 3  # scaling up adds real capacity
        host.remove_replica(2)
        assert host.replicas == 1
        assert pool.slots.capacity == 2

    def test_add_replica_needs_a_positive_count(self, home):
        host, pool = pooled_host(home, echo_service(), slots=2)
        with pytest.raises(ServiceError, match="positive"):
            host.add_replica(0)
        assert host.replicas == 1

    def test_queue_pressure_reads_through_the_lease(self, home):
        host, pool = pooled_host(home, echo_service(cost=0.050), slots=1)
        host.call_local({})
        host.call_local({})
        seen = {}

        def probe():  # mid-run: one call executing, one queued
            seen["busy"] = host.busy_workers
            seen["queued"] = host.queue_length
            seen["backlog"] = pool.backlog

        home.kernel.schedule(0.010, probe)
        home.kernel.run()
        assert seen == {"busy": 1, "queued": 1, "backlog": 1}
        assert host.queue_length == 0


class TestPooledCrash:
    def test_crash_drops_queued_work_but_keeps_the_pool(self, home):
        host, pool = pooled_host(home, echo_service(cost=0.050), slots=1)
        first = host.call_local({})
        second = host.call_local({})

        def crash():
            host.crash()

        home.kernel.schedule(0.010, crash)
        home.kernel.run()
        assert not first.succeeded and not second.succeeded
        # every slot found its way back to the shared pool
        assert pool.slots.in_use == 0
        assert host.pool is pool

    def test_crash_withdraws_the_hosts_queued_requests(self, home):
        """A crashed host's queued requests leave the shared queue at
        once, so the slot goes straight to a survivor's request."""
        pool = home.desktop.enable_replica_pool(slots=2)
        host = ServiceHost(home.kernel, home.desktop,
                           echo_service(cost=0.050), home.transport)
        survivor = ServiceHost(home.kernel, home.desktop,
                               echo_service("survivor", cost=0.050),
                               home.transport, port=7901)
        host.attach_pool(pool)
        survivor.attach_pool(pool)
        host.call_local({})
        for _ in range(2):
            home.kernel.schedule(0.001, host.call_local, {})
        survived = []
        home.kernel.schedule(0.002, lambda: survived.append(
            survivor.call_local({})))
        seen = {}

        def crash():
            seen["before"] = pool.backlog
            host.crash()
            seen["after"] = pool.backlog
            seen["queued"] = host.queue_length

        home.kernel.schedule(0.010, crash)
        home.kernel.run()
        # two slots, one share each: the host holds both and queues one,
        # the survivor queues behind it
        assert seen == {"before": 2, "after": 1, "queued": 0}
        assert survived[0].succeeded
        assert pool.slots.in_use == 0 and pool.backlog == 0
        assert host.busy_workers == 0

    def test_a_slot_granted_as_its_host_crashes_goes_back(self, home):
        """Two hosts crash at one instant, in two events: the first's
        interrupted dispatch frees a slot that goes to the second's queued
        request, which the second's crash then finds granted and not yet
        taken up. The slot comes back to the pool all the same."""
        pool = home.desktop.enable_replica_pool(slots=1)
        first, second = (
            ServiceHost(home.kernel, home.desktop,
                        echo_service(name, cost=0.050), home.transport,
                        port=port)
            for name, port in (("first", 7901), ("second", 7902)))
        for host in (first, second):
            host.attach_pool(pool)
        # two slots, one share each: the first host holds both
        first.call_local({})
        first.call_local({})
        home.kernel.schedule(0.001, second.call_local, {})
        home.kernel.schedule(0.010, first.crash)
        home.kernel.schedule(0.010, second.crash)
        home.kernel.run()
        assert pool.slots.in_use == 0 and pool.backlog == 0
        assert first.busy_workers == second.busy_workers == 0

    def test_restart_after_crash_serves_again(self, home):
        host, pool = pooled_host(home, echo_service(), slots=2)
        host.crash()
        host.restart()
        done = host.call_local({})
        home.kernel.run()
        assert done.succeeded
        assert pool.slots.in_use == 0

    def test_close_detaches_the_lease(self, home):
        host, pool = pooled_host(home, echo_service(), slots=2)
        host.close()
        assert "echo" not in pool.hosts
