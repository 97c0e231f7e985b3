"""Message envelopes carried by the transports.

A :class:`Message` wraps a payload with routing and tracing metadata. Sizes
are computed once at construction via the wire-format size model so every
transport charges links consistently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from .address import Address
from .wire import payload_size

_message_ids = itertools.count(1)

#: Message kinds used by the runtime; free-form strings are also allowed.
KIND_DATA = "data"  # module-to-module data flow (call_module)
KIND_REQUEST = "request"  # RPC request (call_service, remote)
KIND_REPLY = "reply"  # RPC response
KIND_SIGNAL = "signal"  # flow-control ready signal (sink -> source)

#: Header key carrying a trace context (``[trace_id, span_id]``) across
#: module hops and RPC calls. Injected *after* message construction so it
#: never counts toward ``size_bytes``: the ~30 bytes a real tracer adds are
#: below the size model's resolution, and keeping them out guarantees a
#: traced run replays bit-for-bit like an untraced one (no observer effect).
H_TRACE = "trace"


@dataclass(slots=True)
class Message:
    """One unit of communication between two addresses.

    Attributes:
        kind: one of the ``KIND_*`` constants (or any string).
        src: sender address; ``None`` for anonymous senders.
        dst: destination address.
        payload: the wire-encodable body.
        headers: small string-keyed metadata (trace ids, frame ids, ...).
        size_bytes: bytes charged on the wire (payload + headers + envelope).
        sent_at / delivered_at: simulated timestamps filled by the transport.
        hinted: the payload leaves the size walk sized by their
            ``wire_size`` hint (frame refs, encoded frames), in walk order;
            ``None`` when ``size_bytes`` was given and no walk ran.
    """

    kind: str
    dst: Address
    payload: Any = None
    src: Address | None = None
    headers: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    size_bytes: int = 0
    sent_at: float | None = None
    delivered_at: float | None = None
    hinted: list[Any] | None = None

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.hinted = []
            self.size_bytes = (payload_size(self.payload, self.hinted)
                               + payload_size(self.headers))

    @property
    def latency(self) -> float:
        """Transfer latency in seconds; raises if not yet delivered."""
        if self.sent_at is None or self.delivered_at is None:
            raise ValueError("message has not completed a transfer")
        return self.delivered_at - self.sent_at

    def reply_to(self) -> Address:
        """The address replies should go to (from the ``reply_to`` header,
        falling back to the source address)."""
        header = self.headers.get("reply_to")
        if header is not None:
            device, _, port = str(header).rpartition(":")
            return Address(device, int(port))
        if self.src is None:
            raise ValueError("message has no reply address")
        return self.src

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message #{self.msg_id} {self.kind} {self.src}->{self.dst}"
            f" {self.size_bytes}B>"
        )
