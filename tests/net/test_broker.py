"""Unit tests for the broker-relayed transport baseline."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    Address,
    BrokeredTransport,
    BrokerlessTransport,
    LinkSpec,
    Message,
    Topology,
)
from repro.sim import Kernel, RngStreams


def build_topo(kernel):
    topo = Topology(kernel, RngStreams(seed=1))
    topo.add_wifi("wifi", LinkSpec(latency_s=0.002, jitter_cv=0.0, bandwidth_bps=100e6))
    for device in ["phone", "desktop", "tv"]:
        topo.attach(device, "wifi")
    return topo


def send_one(kernel, transport, payload=b"x" * 1000):
    received = []
    transport.bind(Address("tv", 1), received.append)
    msg = Message(kind="data", dst=Address("tv", 1), payload=payload,
                  src=Address("phone", 1000))
    done = transport.send(msg)
    kernel.run()
    assert done.succeeded
    return received[0]


class TestBrokeredTransport:
    def test_requires_known_broker_device(self):
        kernel = Kernel()
        topo = build_topo(kernel)
        with pytest.raises(NetworkError):
            BrokeredTransport(kernel, topo, "kafka-box")

    def test_delivers_via_broker(self):
        kernel = Kernel()
        topo = build_topo(kernel)
        transport = BrokeredTransport(kernel, topo, "desktop")
        message = send_one(kernel, transport)
        assert message.payload == b"x" * 1000
        assert transport.relayed_count == 1

    def test_broker_path_is_slower_than_direct(self):
        kernel_a = Kernel()
        direct = BrokerlessTransport(kernel_a, build_topo(kernel_a))
        direct_latency = send_one(kernel_a, direct).latency

        kernel_b = Kernel()
        brokered = BrokeredTransport(kernel_b, build_topo(kernel_b), "desktop")
        broker_latency = send_one(kernel_b, brokered).latency

        assert broker_latency > direct_latency
        # broker pays the phone->desktop and desktop->tv legs plus processing
        assert broker_latency >= direct_latency + brokered.processing_s

    def test_broker_processing_queues_under_load(self):
        kernel = Kernel()
        topo = build_topo(kernel)
        transport = BrokeredTransport(kernel, topo, "desktop",
                                      processing_s=0.1, workers=1)
        received = []
        transport.bind(Address("tv", 1), received.append)
        for _ in range(3):
            transport.send(Message(kind="data", dst=Address("tv", 1),
                                   payload=b"x", src=Address("phone", 1000)))
        kernel.run()
        assert len(received) == 3
        # three messages serialized through one 100 ms broker worker
        assert kernel.now >= 0.3

    def test_broker_to_self_still_relays(self):
        kernel = Kernel()
        topo = build_topo(kernel)
        transport = BrokeredTransport(kernel, topo, "desktop")
        received = []
        transport.bind(Address("desktop", 1), received.append)
        transport.send(Message(kind="data", dst=Address("desktop", 1),
                               payload=b"x", src=Address("desktop", 2)))
        kernel.run()
        assert len(received) == 1


class TestRouteIsTheRelaysDone:
    """``_route`` returns the relay process's own ``done``: the send is
    delivered in the relay's last event and fails if the relay dies."""

    def test_send_is_delivered_in_the_relays_last_event(self):
        kernel = Kernel()
        transport = BrokeredTransport(kernel, build_topo(kernel), "desktop")
        delivered_at = []
        transport.bind(Address("tv", 1),
                       lambda message: delivered_at.append(kernel.now))
        done = transport.send(Message(kind="data", dst=Address("tv", 1),
                                      payload=b"x" * 1000,
                                      src=Address("phone", 1000)))
        kernel.run()
        assert done.value == delivered_at[0] == kernel.now
        assert transport.relayed_count == transport.delivered_count == 1
        assert transport.in_flight == 0

    def test_a_relay_that_dies_on_its_second_leg_fails_the_send(self):
        """The consumer drops off the network while the broker holds the
        message: ``topology.transfer`` raises inside the relay, and the send
        fails with that error instead of pending forever."""
        kernel = Kernel()
        topo = build_topo(kernel)
        transport = BrokeredTransport(kernel, topo, "desktop", processing_s=0.5)
        received = []
        transport.bind(Address("tv", 1), received.append)
        done = transport.send(Message(kind="data", dst=Address("tv", 1),
                                      payload=b"x", src=Address("phone", 1000)))
        kernel.schedule(0.25, topo.partition, "tv")
        kernel.run()
        assert done.failed and isinstance(done.exception, NetworkError)
        assert received == [] and transport.relayed_count == 0
        assert transport.failed_count == 1 and transport.in_flight == 0
