"""Unit tests for the RPC layer."""

import pytest

from repro.errors import RpcError
from repro.net import (
    Address,
    BrokerlessTransport,
    LinkSpec,
    RpcClient,
    RpcServer,
    Topology,
)
from repro.sim import Kernel, RngStreams


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def net(kernel):
    return make_net(kernel)


def make_net(kernel):
    topo = Topology(kernel, RngStreams(seed=1))
    topo.add_wifi("wifi", LinkSpec(latency_s=0.002, jitter_cv=0.0))
    for device in ["phone", "desktop"]:
        topo.attach(device, "wifi")
    return BrokerlessTransport(kernel, topo)


class TestRequestReply:
    def test_sync_handler_roundtrip(self, kernel, net):
        RpcServer(kernel, net, Address("desktop", 6000),
                  lambda payload, msg: {"doubled": payload["x"] * 2})
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), {"x": 21})
        kernel.run()
        assert result.value == {"doubled": 42}

    def test_async_handler_via_signal(self, kernel, net):
        def handler(payload, msg):
            return kernel.timeout(0.050, f"late-{payload}")

        server = RpcServer(kernel, net, Address("desktop", 6000), handler)
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), "req")
        kernel.run()
        assert result.value == "late-req"
        assert kernel.now > 0.050
        assert server.requests_served == 1

    def test_handler_exception_becomes_remote_error(self, kernel, net):
        def handler(payload, msg):
            raise ValueError("bad input")

        server = RpcServer(kernel, net, Address("desktop", 6000), handler)
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), None)
        kernel.run()
        assert result.failed
        error = result.exception
        assert isinstance(error, RpcError)
        assert error.remote
        assert "bad input" in str(error)
        assert server.requests_failed == 1

    def test_failed_async_signal_becomes_remote_error(self, kernel, net):
        def handler(payload, msg):
            sig = kernel.signal()
            kernel.schedule(0.01, sig.fail, RuntimeError("async boom"))
            return sig

        RpcServer(kernel, net, Address("desktop", 6000), handler)
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), None)
        kernel.run()
        assert result.failed
        assert "async boom" in str(result.exception)

    def test_concurrent_calls_correlate_correctly(self, kernel, net):
        def handler(payload, msg):
            # later requests answer sooner: replies arrive out of order
            return kernel.timeout(0.1 / (payload + 1), payload * 10)

        RpcServer(kernel, net, Address("desktop", 6000), handler)
        client = RpcClient(kernel, net, "phone")
        results = [client.call(Address("desktop", 6000), i) for i in range(5)]
        kernel.run()
        assert [r.value for r in results] == [0, 10, 20, 30, 40]

    def test_call_to_unbound_service_fails(self, kernel, net):
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 7777), None)
        kernel.run()
        assert result.failed
        assert isinstance(result.exception, RpcError)

    def test_timeout_fires_before_slow_reply(self, kernel, net):
        RpcServer(kernel, net, Address("desktop", 6000),
                  lambda p, m: kernel.timeout(10.0, "slow"))
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), None, timeout=0.5)
        kernel.run()
        assert result.failed
        assert "timed out" in str(result.exception)

    def test_late_reply_after_timeout_is_discarded(self, kernel, net):
        RpcServer(kernel, net, Address("desktop", 6000),
                  lambda p, m: kernel.timeout(1.0, "slow"))
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), None, timeout=0.5)
        kernel.run()  # runs past the late reply; must not explode
        assert result.failed

    def test_two_clients_do_not_cross_talk(self, kernel, net):
        RpcServer(kernel, net, Address("desktop", 6000), lambda p, m: p)
        client_a = RpcClient(kernel, net, "phone")
        client_b = RpcClient(kernel, net, "phone")
        res_a = client_a.call(Address("desktop", 6000), "a")
        res_b = client_b.call(Address("desktop", 6000), "b")
        kernel.run()
        assert res_a.value == "a"
        assert res_b.value == "b"

    def test_rpc_pays_network_latency_both_ways(self, kernel, net):
        RpcServer(kernel, net, Address("desktop", 6000), lambda p, m: p)
        client = RpcClient(kernel, net, "phone")
        result = client.call(Address("desktop", 6000), "x")
        kernel.run_until_resolved(result)
        # 2 hops out + 2 hops back at 2 ms latency each = >= 8 ms
        assert kernel.now >= 0.008

    def test_close_unbinds_reply_address(self, kernel, net):
        client = RpcClient(kernel, net, "phone")
        addr = client.reply_address
        assert net.is_bound(addr)
        client.close()
        assert not net.is_bound(addr)


class EventCount:
    """Passive kernel observer: executed events."""

    executed = 0

    def on_schedule(self, now, event):
        pass

    def on_execute(self, now, event):
        self.executed += 1


class TestResolvedInTheCall:
    """A signal that already resolved is consumed in the call: a waiter on
    it would be a zero-delay event that moves no time."""

    def test_an_unsendable_request_fails_the_call_at_once(self, kernel, net):
        net.topology.partition("desktop")
        client = RpcClient(kernel, net, "phone", default_timeout_s=0.5)
        result = client.call(Address("desktop", 6000), None)
        assert result.failed
        assert "partitioned" in str(result.exception)
        assert kernel.pending_events == 0  # no waiter and no timeout timer

    def test_a_resolved_handler_signal_is_answered_at_once(self):
        """A handler's signal that resolved in the handler (a cache hit)
        costs what a plain return value costs."""

        def served(resolved_signal):
            kernel, count = Kernel(), EventCount()
            transport = make_net(kernel)
            kernel.add_observer(count)

            def handler(payload, msg):
                if resolved_signal:
                    return kernel.signal().succeed(payload * 2)
                return payload * 2

            RpcServer(kernel, transport, Address("desktop", 6000), handler)
            client = RpcClient(kernel, transport, "phone")
            result = client.call(Address("desktop", 6000), 21)
            kernel.run()
            return result.value, count.executed

        assert served(resolved_signal=True) == served(resolved_signal=False)
