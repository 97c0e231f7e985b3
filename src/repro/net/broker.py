"""Broker-relayed transport: the architecture the paper argues against.

Publish/subscribe systems such as Kafka or RabbitMQ interpose a broker:
every message travels producer → broker → consumer, paying the network twice
plus broker processing. :class:`BrokeredTransport` models exactly that so
the benchmark in ``benchmarks/bench_ablation_broker.py`` can quantify the
overhead relative to the brokerless ZeroMQ-style path (§3.2 of the paper).
"""

from __future__ import annotations

from ..errors import NetworkError
from ..sim.kernel import Kernel
from ..sim.resources import Resource
from ..sim.signals import Signal
from .message import Message
from .topology import Topology
from .transport import Transport

#: Default per-message broker processing time (enqueue + index + dequeue).
DEFAULT_BROKER_OVERHEAD_S = 0.0015


class BrokeredTransport(Transport):
    """A transport that relays every message through a broker device.

    The broker device must exist in the topology (it is typically the most
    capable machine, e.g. the desktop). Broker processing is serialized
    through a worker pool to model queueing under load.
    """

    def __init__(
        self,
        kernel: Kernel,
        topology: Topology,
        broker_device: str,
        processing_s: float = DEFAULT_BROKER_OVERHEAD_S,
        workers: int = 4,
    ) -> None:
        super().__init__(kernel, topology)
        if not topology.has_device(broker_device):
            raise NetworkError(f"broker device {broker_device!r} not in topology")
        self.broker_device = broker_device
        self.processing_s = processing_s
        self._workers = Resource(kernel, workers, name=f"{broker_device}.broker")
        self.relayed_count = 0

    def _route(self, message: Message) -> Signal:
        return self.kernel.process(self._relay(message), name="broker.relay").done

    def _relay(self, message: Message):
        assert message.src is not None
        # Leg 1: producer -> broker.
        yield self.topology.transfer(
            message.src.device, self.broker_device, message.size_bytes
        )
        # Broker processing (queues under load).
        grant = yield self._workers.request()
        yield self.processing_s
        self._workers.release(grant)
        # Leg 2: broker -> consumer.
        yield self.topology.transfer(
            self.broker_device, message.dst.device, message.size_bytes
        )
        self.relayed_count += 1
        return self.kernel.now
