"""Message transports.

:class:`BrokerlessTransport` delivers directly along the topology route —
this is the ZeroMQ-style data path the paper uses. A brokered variant (see
:mod:`repro.net.broker`) relays every message through a broker device, the
Kafka/RabbitMQ architecture the paper argues adds avoidable hops.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from ..errors import DeliveryError, NetworkError
from ..sim.kernel import Kernel
from ..sim.signals import Signal
from .address import Address
from .message import Message
from .topology import Topology

Handler = Callable[[Message], None]

#: First ephemeral port handed out per device.
EPHEMERAL_BASE = 49152


class Transport:
    """Shared bind/deliver machinery; subclasses define the routing."""

    def __init__(self, kernel: Kernel, topology: Topology) -> None:
        self.kernel = kernel
        self.topology = topology
        self._handlers: dict[Address, Handler] = {}
        self._ephemeral: dict[str, itertools.count] = {}
        # insertion-ordered so close() fails pending sends deterministically
        self._pending_sends: dict[Signal, Message] = {}
        #: Every open :class:`~repro.net.rpc.RpcClient` replying through
        #: this transport (each adds itself, and leaves on ``close()``);
        #: the auditor's ``rpc-quiesce`` law walks it.
        self.rpc_clients: list[Any] = []
        self._closed = False
        self.sent_count = 0
        self.delivered_count = 0
        self.failed_count = 0
        #: Who hears of each send and its settlement: the auditor's mirror
        #: of this transport, or ``None`` (set by ``VideoPipe._wire_device``).
        self.observer: Any = None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_flight(self) -> int:
        """Messages sent but neither delivered nor failed yet. The
        conservation law ``sent == delivered + failed + in_flight`` holds
        at every instant; the auditor checks it."""
        return len(self._pending_sends)

    # -- binding ---------------------------------------------------------------
    def bind(self, address: Address, handler: Handler) -> None:
        """Register *handler* to receive messages addressed to *address*."""
        if self._closed:
            raise NetworkError(f"cannot bind {address}: transport is closed")
        if address in self._handlers:
            raise NetworkError(f"address {address} already bound")
        if not self.topology.has_device(address.device):
            raise NetworkError(f"cannot bind {address}: unknown device")
        self._handlers[address] = handler

    def unbind(self, address: Address) -> None:
        self._handlers.pop(address, None)

    def is_bound(self, address: Address) -> bool:
        return address in self._handlers

    def ephemeral_port(self, device: str) -> int:
        """Allocate a fresh ephemeral port on *device* (for reply sockets)."""
        counter = self._ephemeral.setdefault(device, itertools.count(EPHEMERAL_BASE))
        return next(counter)

    # -- sending -----------------------------------------------------------------
    def send(self, message: Message) -> Signal:
        """Transfer *message* and deliver it to the bound handler.

        Returns a signal resolving with the delivery time, or failing with
        :class:`~repro.errors.DeliveryError` if nothing is bound at the
        destination when the message arrives.
        """
        if message.src is None:
            raise NetworkError("message needs a src address for routing")
        message.sent_at = self.kernel.now
        self.sent_count += 1
        if self.observer is not None:
            self.observer.sent(message)
        done = Signal(self.kernel, "send")
        if self._closed:
            self._count_failure(message)
            done.fail(DeliveryError("transport is closed"))
            return done
        if not self.topology.device_is_up(message.src.device):
            self._count_failure(message)
            done.fail(DeliveryError(f"source device {message.src.device!r} is down"))
            return done
        try:
            arrival = self._route(message)
        except NetworkError as exc:
            # routing failures (partition, unknown route) surface through the
            # signal so retry/failover paths see them like any other failure
            self._count_failure(message)
            done.fail(exc)
            return done
        self._pending_sends[done] = message
        arrival.wait(self._deliver, message, done)
        return done

    def _count_failure(self, message: Message) -> None:
        self.failed_count += 1
        if self.observer is not None:
            self.observer.settled(message)

    def _route(self, message: Message) -> Signal:
        """Return the arrival signal for the message's bytes. Overridden by
        brokered transports."""
        return self.topology.transfer(
            message.src.device, message.dst.device, message.size_bytes
        )

    def _deliver(self, message: Message, done: Signal, _arrived_at: float,
                 exc: BaseException | None) -> None:
        if not done.pending:
            return  # already failed (e.g. the transport closed mid-flight)
        del self._pending_sends[done]  # every branch below resolves it
        if exc is not None:
            self._count_failure(message)
            done.fail(exc)
            return
        if self._closed:
            self._count_failure(message)
            done.fail(DeliveryError("transport closed while message in flight"))
            return
        if not self.topology.device_is_up(message.dst.device):
            self._count_failure(message)
            done.fail(DeliveryError(f"device {message.dst.device!r} is down"))
            return
        handler = self._handlers.get(message.dst)
        if handler is None:
            self._count_failure(message)
            done.fail(DeliveryError(f"no listener bound at {message.dst}"))
            return
        message.delivered_at = self.kernel.now
        self.delivered_count += 1
        if self.observer is not None:
            self.observer.settled(message)
        handler(message)
        done.succeed(self.kernel.now)

    # -- teardown ----------------------------------------------------------------
    def close(self) -> None:
        """Idempotent shutdown: unbind every address and fail in-flight sends
        (instead of leaking forever-pending signals). Further ``bind``/``send``
        calls are rejected/failed."""
        if self._closed:
            return
        self._closed = True
        self._handlers.clear()
        pending = list(self._pending_sends.items())
        self._pending_sends.clear()
        for sig, message in pending:
            if sig.pending:
                self._count_failure(message)
                sig.fail(DeliveryError("transport closed"))


class BrokerlessTransport(Transport):
    """Direct peer-to-peer delivery (the ZeroMQ model): one route, no relay."""
