"""The per-kernel span sink.

One :class:`TraceRecorder` serves a whole home, reading time from the
shared kernel. It subscribes to every pipeline's frame events
(``runtime/observe.py``) and to each service host's server-side events of
a traced call, and turns both into spans. Root spans — one per admitted
frame — stay *open* from admission until completion (or a drop), so a
frame's end-to-end span has the true completion time; child spans are
recorded retrospectively with explicit start/end.

A span is recorded as one row: a tuple of :class:`Span`'s fields, in
order, appended to a list (the attrs dict is left off when there are
none). ``Span`` objects are built from the rows only when something reads
:attr:`TraceRecorder.spans` or :meth:`TraceRecorder.traces`; a run that
never reads them builds none (docs/TRACING.md "What a span costs").

The recorder is intentionally passive: it never schedules kernel events,
attaches no waiter and never mutates what it observes, so tracing cannot
perturb the simulation (see ``docs/TRACING.md`` for the full
no-observer-effect guarantee). A service call's span closes when the
runtime's own completion waiter tells the observers the call ended. The
referee is ``tests/integration/test_observer_passivity.py``: a traced
run's event stream equals the untraced run's, on a home with cache hits
and pooled grants and on a crash from a fault plan.

``max_spans`` bounds memory on long runs: past the cap each new row —
a frame's root closing included — is counted in ``dropped_spans`` and
discarded (an open root still closes: it leaves the open set).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from ..net.message import H_TRACE
from ..runtime.observe import FrameObserver
from .span import (
    CAT_COMPUTE,
    CAT_FRAME,
    CAT_MARK,
    CAT_QUEUE,
    CAT_SERIALIZE,
    CAT_SERVICE,
    CAT_STAGE,
    CAT_WIRE,
    Span,
    SpanContext,
    trace_id_for,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..net.message import Message
    from ..runtime.context import ModuleContext
    from ..runtime.events import ModuleEvent
    from ..runtime.wiring import PipelineWiring
    from ..services.host import ServiceHost
    from ..services.stubs import ServiceStub
    from ..sim.kernel import Kernel


class TraceRecorder(FrameObserver):
    """Collects spans for every traced frame running on one kernel."""

    def __init__(self, kernel: "Kernel", max_spans: int = 1_000_000) -> None:
        self.kernel = kernel
        self.max_spans = max_spans
        #: one row per recorded span: ``Span``'s positional fields
        self._rows: list[tuple] = []
        #: the ``Span`` of each row read so far, in row order
        self._built: list[Span] = []
        self._ids = itertools.count(1)
        #: trace id -> (root span id, start, device, actor) of an open frame
        self._open_frames: dict[str, tuple] = {}
        # per module context: the (trace id, span id) its children parent to
        # (the handler span, or the root of a frame it just admitted), and
        # its open handler span: (trace id, span id, parent id, start)
        self._parents: dict["ModuleContext", Any] = {}
        self._handlers: dict["ModuleContext", tuple] = {}
        #: call span id -> (parent span id, start) of a call not yet ended
        self._calls: dict[int, tuple[int, float]] = {}
        #: per service host: (device, actor) of the spans it serves
        self._hosts: dict["ServiceHost", tuple[str, str]] = {}
        # statistics
        self.dropped_spans = 0
        self.frames_started = 0
        self.frames_finished = 0
        self.frames_dropped = 0

    def _write(self, row: tuple) -> None:
        if len(self._rows) < self.max_spans:
            self._rows.append(row)
        else:
            self.dropped_spans += 1

    # -- frame lifecycle -------------------------------------------------------
    def _open(self, trace_id: str, device: str, actor: str) -> int:
        """Open *trace_id*'s root span and mark the admission; its id."""
        now = self.kernel.now
        stale = self._open_frames.pop(trace_id, None)
        if stale is not None:  # duplicate admission: close the stale root
            self._close(trace_id, stale, now, {"outcome": "superseded"})
        root = next(self._ids)
        self._open_frames[trace_id] = (root, now, device, actor)
        self.frames_started += 1
        self._write((trace_id, next(self._ids), root, "source.admit",
                     CAT_MARK, now, now, device, actor))
        return root

    def _close(self, trace_id: str, open_frame: tuple, end: float,
               attrs: dict) -> None:
        root, start, device, actor = open_frame
        self._write((trace_id, root, None, "frame", CAT_FRAME, start, end,
                     device, actor, attrs))

    def frame_started(
        self, pipeline: str, frame_id: int, device: str = "", actor: str = ""
    ) -> SpanContext:
        """Open the root span for one admitted frame; returns its context
        (the parent of everything that happens to the frame)."""
        trace_id = trace_id_for(pipeline, frame_id)
        return SpanContext(trace_id, self._open(trace_id, device, actor))

    def frame_finished(self, trace_id: str, **attrs: Any) -> None:
        """Close a frame's root span at the current time (no-op when the
        frame was never traced — e.g. tracing enabled mid-run)."""
        open_frame = self._open_frames.pop(trace_id, None)
        if open_frame is not None:
            self.frames_finished += 1
            self._close(trace_id, open_frame, self.kernel.now,
                        {"outcome": "completed", **attrs})

    def frame_dropped(self, trace_id: str, **attrs: Any) -> None:
        """Close a frame's root span as dropped (chaos, migration, source)."""
        open_frame = self._open_frames.pop(trace_id, None)
        if open_frame is not None:
            self.frames_dropped += 1
            self._close(trace_id, open_frame, self.kernel.now,
                        {"outcome": "dropped", **attrs})

    # -- frame events (runtime/observe.py) -------------------------------------
    # a trace context is a [trace id, span id] pair: the H_TRACE header value

    def admitted(self, ctx: "ModuleContext", frame_id: int) -> list:
        trace_id = trace_id_for(ctx.wiring.pipeline_name, frame_id)
        root = self._parents[ctx] = [
            trace_id, self._open(trace_id, ctx.device_name, ctx.module_name)]
        return root

    def enqueued(self, ctx: "ModuleContext", message: "Message") -> None:
        # a message reaches the runtime of its destination's device
        src = message.src
        if (src is not None and src.device != message.dst.device
                and message.sent_at is not None
                and message.delivered_at is not None):
            parent = message.headers.get(H_TRACE)
            if parent is not None:
                trace_id, parent_id = parent
                self._write((trace_id, next(self._ids), parent_id,
                             "wire.transfer", CAT_WIRE, message.sent_at,
                             message.delivered_at, ctx.device_name,
                             ctx.module_name, {"bytes": message.size_bytes,
                                               "src": src.device}))

    def handler_start(self, ctx: "ModuleContext", event: "ModuleEvent") -> None:
        root = event.headers.get(H_TRACE)
        if root is None:
            self._parents.pop(ctx, None)
            self._handlers.pop(ctx, None)
            return
        trace_id, root_id = root
        now = self.kernel.now
        self._write((trace_id, next(self._ids), root_id, "mailbox.wait",
                     CAT_QUEUE, event.enqueued_at, now, ctx.device_name,
                     ctx.module_name))
        handler = next(self._ids)
        self._parents[ctx] = (trace_id, handler)
        self._handlers[ctx] = (trace_id, handler, root_id, now)

    def handler_end(self, ctx: "ModuleContext", event: "ModuleEvent",
                    ok: bool) -> None:
        self._parents.pop(ctx, None)
        open_handler = self._handlers.pop(ctx, None)
        if open_handler is not None:
            trace_id, handler, root_id, started = open_handler
            self._write((trace_id, handler, root_id,
                         f"module.{ctx.module_name}", CAT_COMPUTE, started,
                         self.kernel.now, ctx.device_name, ctx.module_name,
                         {"ok": ok}))

    def service_call(self, ctx: "ModuleContext", service: str,
                     stub: "ServiceStub") -> Any:
        # the call span's identity is minted first, so the callee (local
        # host or remote server) can parent its spans to it; the span
        # itself is recorded when the call returns
        parent = self._parents.get(ctx)
        if parent is None:
            return None
        trace_id, parent_id = parent
        span_id = next(self._ids)
        self._calls[span_id] = (parent_id, self.kernel.now)
        return [trace_id, span_id]

    def service_returned(self, ctx: "ModuleContext", service: str,
                         stub: "ServiceStub", trace: Any, ok: bool) -> None:
        trace_id, span_id = trace
        parent_id, started = self._calls.pop(span_id)
        device, actor = ctx.device_name, ctx.module_name
        if stub.last_prepare_s > 0 and not stub.is_local:
            # encode+marshal heads the call window (the stub stamps it
            # before dispatching; a local stub never does)
            self._write((trace_id, next(self._ids), span_id, "rpc.serialize",
                         CAT_SERIALIZE, started,
                         started + stub.last_prepare_s, device, actor))
        self._write((trace_id, span_id, parent_id, f"service.call:{service}",
                     CAT_SERVICE, started, self.kernel.now, device, actor,
                     {"service": service, "ok": ok}))

    def stage(self, ctx: "ModuleContext", stage: str, seconds: float) -> None:
        parent = self._parents.get(ctx)
        if parent is not None:
            trace_id, parent_id = parent
            now = self.kernel.now
            self._write((trace_id, next(self._ids), parent_id,
                         f"stage.{stage}", CAT_STAGE, now - seconds, now,
                         ctx.device_name, ctx.module_name))

    def completed(self, ctx: "ModuleContext", frame_id: int) -> None:
        trace_id = trace_id_for(ctx.wiring.pipeline_name, frame_id)
        parent = self._parents.get(ctx)
        if parent is not None:
            parent_trace, parent_id = parent
            now = self.kernel.now
            self._write((parent_trace, next(self._ids), parent_id,
                         "frame.complete", CAT_MARK, now, now,
                         ctx.device_name, ctx.module_name))
        self.frame_finished(trace_id)

    def dropped(self, wiring: "PipelineWiring", frame_id: int, reason: str,
                device: str, actor: str) -> None:
        self.frame_dropped(trace_id_for(wiring.pipeline_name, frame_id),
                           device=device, actor=actor, reason=reason)

    # -- service host events (services/host.py) ----------------------------------
    # *trace* is the call's context as the caller sent it, or None

    def _served(self, host: "ServiceHost", trace: Any, name: str,
                category: str, start: float, end: float,
                attrs: dict | None = None) -> None:
        """A span of *host*'s service under the caller's call span."""
        if trace is None:
            return
        where = self._hosts.get(host)
        if where is None:
            where = self._hosts[host] = (host.device.name,
                                         f"service:{host.service_name}")
        trace_id, parent_id = trace
        row = (trace_id, next(self._ids), parent_id, name, category, start,
               end, *where)
        self._write(row if attrs is None else (*row, attrs))

    def rpc_received(self, host: "ServiceHost", trace: Any,
                     message: "Message") -> None:
        if message.sent_at is not None and message.delivered_at is not None:
            self._served(
                host, trace, "rpc.transfer", CAT_WIRE, message.sent_at,
                message.delivered_at, {
                    "bytes": message.size_bytes,
                    "src": message.src.device if message.src else "?"})

    def cache_hit(self, host: "ServiceHost", trace: Any) -> None:
        now = self.kernel.now
        self._served(host, trace, "cache.hit", CAT_MARK, now, now)

    def call_waited(self, host: "ServiceHost", trace: Any, formed: bool,
                    start: float, end: float) -> None:
        """Admission to a worker: the batcher's wait when it *formed* the
        dispatch, the worker queue's otherwise."""
        if end > start:
            self._served(
                host, trace,
                "service.batch_wait" if formed else "service.queue",
                CAT_QUEUE, start, end)

    def call_decoded(self, host: "ServiceHost", trace: Any, start: float,
                     end: float) -> None:
        self._served(host, trace, "rpc.deserialize", CAT_SERIALIZE,
                     start, end)

    def call_computed(self, host: "ServiceHost", trace: Any, start: float,
                      end: float, batch_size: int | None) -> None:
        """*batch_size* is the formed batch's, ``None`` for a solo call."""
        self._served(host, trace, f"service.compute:{host.service_name}",
                     CAT_COMPUTE, start, end,
                     None if batch_size is None else {"batch_size": batch_size})

    # -- introspection ----------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in record order (built from the rows once,
        on the first read that reaches them)."""
        built, rows = self._built, self._rows
        built.extend(Span(*row) for row in rows[len(built):])
        return list(built)

    @property
    def span_count(self) -> int:
        return len(self._rows)

    @property
    def open_frame_count(self) -> int:
        return len(self._open_frames)

    def traces(self) -> dict[str, list[Span]]:
        """Recorded spans grouped by trace id (insertion order preserved)."""
        grouped: dict[str, list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TraceRecorder {self.span_count} spans,"
            f" {self.frames_finished}/{self.frames_started} frames,"
            f" {self.open_frame_count} open>"
        )
