"""Unit tests for the ServiceHost failure lifecycle: crash, restart, close."""

import pytest

from repro.errors import ServiceError
from repro.net import Address, RpcClient
from repro.services import FunctionService, ServiceHost


def echo_service(cost=0.010):
    return FunctionService("echo", lambda payload, ctx: payload,
                           reference_cost_s=cost)


class TestCrash:
    def test_crash_fails_in_flight_calls(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.100),
                           home.transport)
        result = host.call_local({"x": 1})
        home.kernel.schedule(0.020, host.crash)
        home.kernel.run()
        assert result.failed
        assert isinstance(result.exception, ServiceError)
        assert host.dropped_in_flight == 1
        assert host.crashes == 1

    def test_crash_does_not_leak_cpu_cores(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.100),
                           home.transport)
        for _ in range(3):
            host.call_local({})
        home.kernel.schedule(0.020, host.crash)
        home.kernel.run()
        assert home.desktop.cpu.cores.in_use == 0

    def test_crashed_host_rejects_new_calls(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport)
        host.crash()
        result = host.call_local({})
        home.kernel.run()
        assert result.failed
        assert "down" in str(result.exception)

    def test_crash_unbinds_rpc_endpoint(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport, port=7000)
        assert home.transport.is_bound(host.address)
        host.crash()
        assert not home.transport.is_bound(host.address)
        # remote callers now see a (retryable) delivery failure, not an
        # RPC-level "service down" reply
        client = RpcClient(home.kernel, home.transport, "phone")
        result = client.call(Address("desktop", 7000), {})
        home.kernel.run()
        assert result.failed
        assert not getattr(result.exception, "remote", False)

    def test_crash_is_idempotent(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport)
        host.crash()
        host.crash()
        assert host.crashes == 1


class TestRestart:
    def test_restart_rebinds_and_serves_again(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.010),
                           home.transport)
        host.crash()
        host.restart()
        assert host.up
        assert home.transport.is_bound(host.address)
        result = host.call_local({"x": 2})
        home.kernel.run()
        assert result.value == {"x": 2}

    def test_restart_replaces_the_worker_pool(self, home):
        """Workers held at crash time die with the old pool; the fresh pool
        starts at full capacity."""
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.100),
                           home.transport, replicas=2)
        host.call_local({})
        host.call_local({})
        home.kernel.run(until=0.020)
        assert host.busy_workers == 2
        host.crash()
        host.restart()
        assert host.busy_workers == 0
        assert host.replicas == 2
        first = host.call_local({})
        second = host.call_local({})
        home.kernel.run()
        assert first.succeeded and second.succeeded

    def test_restart_preserves_added_replicas(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport, replicas=1)
        host.add_replica(2)
        host.crash()
        host.restart()
        assert host.replicas == 3

    def test_restart_of_live_host_is_a_noop(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport)
        host.restart()
        assert host.up and host.crashes == 0


class TestClose:
    def test_close_is_idempotent(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport)
        host.close()
        host.close()
        assert not host.up
        assert not home.transport.is_bound(host.address)

    def test_close_fails_pending_calls(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.100),
                           home.transport)
        result = host.call_local({})
        home.kernel.schedule(0.020, host.close)
        home.kernel.run()
        assert result.failed
        assert "closed" in str(result.exception)

    def test_close_leaves_no_worker_busy(self, home):
        """The worker freed by the interrupted call must not be handed to a
        call that was dropped while queued behind it."""
        host = ServiceHost(home.kernel, home.desktop, echo_service(0.100),
                           home.transport)
        dones = [host.call_local({}) for _ in range(3)]
        home.kernel.schedule(0.020, host.close)
        home.kernel.run()
        assert all(done.failed for done in dones)
        assert host.busy_workers == 0 and host.queue_length == 0

    def test_closed_host_cannot_restart(self, home):
        host = ServiceHost(home.kernel, home.desktop, echo_service(),
                           home.transport)
        host.close()
        host.restart()
        assert not host.up
        assert not home.transport.is_bound(host.address)
