"""Unit tests for service hosting: local/remote paths, queueing, replicas."""

import pytest

from repro.errors import ServiceError
from repro.frames import SyntheticCamera
from repro.motion import Squat
from repro.services import FunctionService, ServiceHost
from repro.services.builtin.pose import PoseDetectorService


def frame(home):
    return SyntheticCamera("phone", Squat()).capture(1, 0.0)


def echo_service(cost=0.010):
    return FunctionService("echo", lambda payload, ctx: payload, reference_cost_s=cost)


class TestLocalCalls:
    def test_local_call_resolves_refs_without_copy(self, home):
        host = ServiceHost(home.kernel, home.desktop, PoseDetectorService(),
                           home.transport)
        ref = home.desktop.frame_store.put(frame(home))
        result = host.call_local({"frame": ref})
        home.kernel.run()
        assert result.value["detected"]
        # the ref is still owned by the caller (borrow semantics)
        assert home.desktop.frame_store.contains(ref)

    def test_local_call_charges_compute_time(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.050),
                           home.transport)
        done = host.call_local({"x": 1})
        home.kernel.run_until_resolved(done)
        assert home.kernel.now >= 0.035  # 50 ms minus jitter

    def test_single_worker_queues_requests(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.050),
                           home.transport, replicas=1)
        first = host.call_local({})
        second = host.call_local({})
        home.kernel.run()
        assert first.succeeded and second.succeeded
        assert home.kernel.now >= 0.090  # serialized: ~2 x 50 ms
        assert host.total_wait_s > 0.040

    def test_two_replicas_run_in_parallel(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.050),
                           home.transport, replicas=2)
        first = host.call_local({})
        second = host.call_local({})
        home.kernel.run()
        assert first.succeeded and second.succeeded
        assert home.kernel.now < 0.080

    def test_add_replica_unblocks_queue(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.100),
                           home.transport, replicas=1)
        for _ in range(3):
            host.call_local({})
        queue_seen = {}

        def grow():
            queue_seen["before"] = host.queue_length
            host.add_replica(2)
            queue_seen["after"] = host.queue_length

        home.kernel.schedule(0.010, grow)
        home.kernel.run()
        assert queue_seen["before"] == 2  # two waited behind one worker
        assert queue_seen["after"] == 0  # growth drained the queue
        assert host.replicas == 3
        assert home.kernel.now < 0.160  # latecomers ran concurrently

    def test_the_queue_stays_fifo_while_replicas_grow(self, home):
        """A grant that growth makes outside any drain is taken up a
        wake-up later; a request made in between still counts that slot as
        held, so it queues behind the older one, not ahead of it."""
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.100),
                           home.transport, replicas=1)
        resolved = []

        def call(tag):
            host.call_local({}).wait(lambda value, exc: resolved.append(tag))

        for tag in ("running", "granted_by_growth", "older"):
            call(tag)
        # the arrival's dispatch starts after the growth, before its wake-up
        home.kernel.schedule(0.010, call, "newer")
        home.kernel.schedule(0.010, host.add_replica)
        home.kernel.run()
        assert resolved == ["running", "granted_by_growth", "older", "newer"]

    def test_handler_crash_fails_signal_and_frees_worker(self, home):
        def bad(payload, ctx):
            raise RuntimeError("boom")

        host = ServiceHost(home.kernel, home.desktop,
                           FunctionService("bad", bad), home.transport)
        first = host.call_local({})
        second = host.call_local({})
        home.kernel.run()
        assert first.failed and isinstance(first.exception, ServiceError)
        assert second.failed  # worker was not leaked: second also ran
        assert host.errors == 2
        assert host.busy_workers == 0

    def test_replicas_validation(self, home):
        with pytest.raises(ServiceError):
            ServiceHost(home.kernel, home.desktop, echo_service(),
                        home.transport, replicas=0)

    def test_remove_replica_shrinks_the_pool(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.050),
                           home.transport, replicas=3)
        host.remove_replica(2)
        assert host.replicas == 1
        first = host.call_local({})
        second = host.call_local({})
        home.kernel.run()
        assert first.succeeded and second.succeeded
        assert home.kernel.now >= 0.090  # serialized on the surviving slot

    def test_remove_replica_validation(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport, replicas=2)
        with pytest.raises(ServiceError):
            host.remove_replica(0)
        with pytest.raises(ServiceError, match="below one replica"):
            host.remove_replica(2)

    def test_remove_replica_lets_busy_calls_finish(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.100),
                           home.transport, replicas=2)
        first = host.call_local({})
        second = host.call_local({})

        def shrink():
            host.remove_replica(1)

        home.kernel.schedule(0.010, shrink)
        home.kernel.run()
        # both in-progress calls completed in parallel despite the shrink
        assert first.succeeded and second.succeeded
        assert home.kernel.now < 0.150
        assert host.replicas == 1


class TestRemoteCalls:
    def test_remote_call_pays_decode_then_serves(self, home):
        from repro.services import RemoteServiceStub

        host = ServiceHost(home.kernel, home.desktop, PoseDetectorService(),
                           home.transport)
        stub = RemoteServiceStub(home.kernel, home.transport, home.phone, host)
        ref = home.phone.frame_store.put(frame(home))
        result = stub.call({"frame": ref})
        home.kernel.run_until_resolved(result)
        assert result.value["detected"]
        assert host.remote_calls == 1
        assert stub.frames_shipped == 1
        # caller keeps its hold (service calls borrow)
        assert home.phone.frame_store.contains(ref)

    def test_remote_call_slower_than_local(self, home):
        from repro.services import RemoteServiceStub

        host = ServiceHost(home.kernel, home.desktop, PoseDetectorService(),
                           home.transport)
        ref = home.desktop.frame_store.put(frame(home))
        local = host.call_local({"frame": ref})
        home.kernel.run_until_resolved(local)
        local_time = home.kernel.now

        home2 = type(home)()
        host2 = ServiceHost(home2.kernel, home2.desktop, PoseDetectorService(),
                            home2.transport)
        stub = RemoteServiceStub(home2.kernel, home2.transport, home2.phone, host2)
        ref2 = home2.phone.frame_store.put(frame(home2))
        remote = stub.call({"frame": ref2})
        home2.kernel.run_until_resolved(remote)
        assert home2.kernel.now > local_time + 0.010  # ship + marshal + reply

    def test_remote_prepare_time_tracked(self, home):
        from repro.services import RemoteServiceStub

        host = ServiceHost(home.kernel, home.desktop, PoseDetectorService(),
                           home.transport)
        stub = RemoteServiceStub(home.kernel, home.transport, home.phone, host)
        ref = home.phone.frame_store.put(frame(home))
        result = stub.call({"frame": ref})
        home.kernel.run_until_resolved(result)
        assert stub.last_prepare_s > 0.002  # JPEG encode + marshal


class TestStatelessness:
    def test_builtin_services_do_not_accumulate_state(self, home):
        """The §2.2 contract: instance dict unchanged across calls."""
        service = PoseDetectorService()
        host = ServiceHost(home.kernel, home.desktop, service, home.transport)
        before = dict(vars(service))
        for i in range(3):
            host.call_local({"frame": home.desktop.frame_store.put(frame(home))})
        home.kernel.run()
        assert vars(service) == before
