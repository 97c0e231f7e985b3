"""The span model: per-frame distributed traces.

A *trace* follows one frame through the pipeline, from source admission to
completion. Its id is ``"<pipeline>/<frame_id>"``, so traces from different
pipelines sharing a home (or a service) never collide. Every timed piece of
work the frame passes through — a mailbox wait, a module handler, an RPC
leg, a service-host queue — is recorded as a :class:`Span`; parent/child
links form the tree :func:`repro.trace.critical_path.critical_path` walks.

The propagation unit is :class:`SpanContext`: (trace id, span id, parent
id). It crosses process boundaries inside message headers (see
:data:`repro.net.message.H_TRACE`) as the wire-friendly pair
``[trace_id, span_id]``; the receiver parents its spans to the carried span
id. The recorder itself mints and reads only that pair, and keeps each span
as a row of :class:`Span`'s fields: a ``Span`` is built when the spans are
read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Span categories — the buckets of the Fig. 6 latency decomposition.
CAT_FRAME = "frame"          # the per-frame root span (admission → completion)
CAT_QUEUE = "queue"          # mailbox / worker-pool / batch-formation waits
CAT_COMPUTE = "compute"      # module handlers and service execution
CAT_WIRE = "wire"            # network transfer time
CAT_SERIALIZE = "serialize"  # encode/marshal and decode/unmarshal costs
CAT_SERVICE = "service"      # the caller-side service.call envelope
CAT_STAGE = "stage"          # app-level stage timers (mirror MetricsCollector)
CAT_MARK = "mark"            # zero-duration annotations (cache hits, completion)


def trace_id_for(pipeline: str, frame_id: int) -> str:
    """The canonical trace id of one frame of one pipeline."""
    return f"{pipeline}/{frame_id}"


@dataclass(frozen=True, slots=True)
class SpanContext:
    """The propagated identity of a span: enough to parent children to it."""

    trace_id: str
    span_id: int
    parent_id: int | None = None

    def header(self) -> list:
        """Wire-encodable form carried in message headers."""
        return [self.trace_id, self.span_id]

    @classmethod
    def from_header(cls, value: Any) -> "SpanContext | None":
        """Rebuild a context from a header value; None if malformed."""
        try:
            trace_id, span_id = value
            return cls(str(trace_id), int(span_id))
        except (TypeError, ValueError):
            return None


@dataclass(slots=True)
class Span:
    """One completed, timed piece of work attributed to a frame."""

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    category: str
    start: float
    end: float
    device: str = ""
    actor: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.parent_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.name} [{self.category}] {self.trace_id}#{self.span_id}"
            f" {self.duration * 1e3:.3f}ms @{self.device}/{self.actor}>"
        )
