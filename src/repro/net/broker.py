"""Broker-relayed transport: the architecture the paper argues against.

Publish/subscribe systems such as Kafka or RabbitMQ interpose a broker:
every message travels producer → broker → consumer, paying the network twice
plus broker processing. :class:`BrokeredTransport` models exactly that so
the benchmark in ``benchmarks/bench_ablation_broker.py`` can quantify the
overhead relative to the brokerless ZeroMQ-style path (§3.2 of the paper).
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import NetworkError
from ..sim.kernel import Kernel
from ..sim.resources import Resource
from ..sim.signals import hand_off, wake
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

    def _route(self, message: Message, then: Callable[..., None], *args: Any) -> None:
        """A relay is three waiters — leg 1, broker processing, leg 2 — that
        starts where a process would: at the back of the drain now running,
        else in one zero-delay event of its own."""
        hand_off(self.kernel, ((self._relay, (message, then, args)),), None, None)

    def _relay(self, message: Message, then: Callable[..., None], args: tuple,
               _value: Any, _exc: Any) -> None:
        assert message.src is not None
        # Leg 1: producer -> broker.
        try:
            self.topology.transfer(
                message.src.device, self.broker_device, message.size_bytes,
                self._at_broker, message, then, args,
            )
        except Exception as error:  # no route: the relay fails
            wake(self.kernel, ((then, args),), None, error)

    def _at_broker(self, message: Message, then: Callable[..., None],
                   args: tuple, _at: float, _exc: Any) -> None:
        # Broker processing (queues under load).
        self._workers.hold(self.processing_s, self._processed, message, then, args)

    def _processed(self, message: Message, then: Callable[..., None],
                   args: tuple, _duration: float, _exc: Any) -> None:
        # Leg 2: broker -> consumer.
        try:
            self.topology.transfer(
                self.broker_device, message.dst.device, message.size_bytes,
                self._relayed, then, args,
            )
        except Exception as error:
            wake(self.kernel, ((then, args),), None, error)

    def _relayed(self, then: Callable[..., None], args: tuple, at: float,
                 _exc: Any) -> None:
        self.relayed_count += 1
        then(*args, at, None)
