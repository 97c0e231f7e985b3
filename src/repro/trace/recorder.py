"""The per-kernel span sink.

One :class:`TraceRecorder` serves a whole home, reading time from the
shared kernel. It subscribes to every pipeline's frame events
(``runtime/observe.py``) and to each service host's server-side events of
a traced call, and turns both into spans. Root spans — one per admitted
frame — stay *open* from ``frame_started`` until ``frame_finished`` (or
``frame_dropped``), so a frame's end-to-end span has the true completion
time; child spans are recorded retrospectively with explicit start/end.

The recorder is intentionally passive: it never schedules kernel events and
never mutates what it observes, so tracing cannot perturb the simulation
(see ``docs/TRACING.md`` for the full no-observer-effect guarantee). A
call's span closes inside the event that resolves the call, or in the call
itself when it resolved at once. The referee is
``tests/integration/test_observer_passivity.py``: on a home with cache hits
and pooled grants, a traced run's event stream equals the untraced run's.

``max_spans`` bounds memory on long runs: past the cap new spans are
counted in ``dropped_spans`` and discarded (open frame roots still close
correctly — their slot was reserved at admission).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

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


@dataclass(slots=True)
class _OpenFrame:
    context: SpanContext
    start: float
    device: str
    actor: str


class TraceRecorder(FrameObserver):
    """Collects spans for every traced frame running on one kernel."""

    def __init__(self, kernel: "Kernel", max_spans: int = 1_000_000) -> None:
        self.kernel = kernel
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._open_frames: dict[str, _OpenFrame] = {}
        # per module context: the span its children parent to (the handler
        # span, or the root of a frame it just admitted), and the open
        # handler span with its start
        self._parents: dict["ModuleContext", SpanContext] = {}
        self._handlers: dict["ModuleContext", tuple[SpanContext, float]] = {}
        # statistics
        self.dropped_spans = 0
        self.frames_started = 0
        self.frames_finished = 0
        self.frames_dropped = 0

    # -- identity ------------------------------------------------------------
    def child_context(self, parent: SpanContext) -> SpanContext:
        """A fresh span identity under *parent* (record it later with
        :meth:`record_span`, or ship it in a header first)."""
        return SpanContext(parent.trace_id, next(self._ids), parent.span_id)

    # -- frame lifecycle -------------------------------------------------------
    def frame_started(
        self, pipeline: str, frame_id: int, device: str = "", actor: str = ""
    ) -> SpanContext:
        """Open the root span for one admitted frame; returns its context
        (the parent of everything that happens to the frame)."""
        trace_id = trace_id_for(pipeline, frame_id)
        stale = self._open_frames.pop(trace_id, None)
        if stale is not None:  # duplicate admission: close the stale root
            self._close_frame(stale, self.kernel.now, outcome="superseded")
        context = SpanContext(trace_id, next(self._ids), None)
        self._open_frames[trace_id] = _OpenFrame(
            context, self.kernel.now, device, actor
        )
        self.frames_started += 1
        self.annotate("source.admit", parent=context, device=device, actor=actor)
        return context

    def frame_finished(self, trace_id: str, **attrs: Any) -> None:
        """Close a frame's root span at the current time (no-op when the
        frame was never traced — e.g. tracing enabled mid-run)."""
        open_frame = self._open_frames.pop(trace_id, None)
        if open_frame is None:
            return
        self.frames_finished += 1
        self._close_frame(open_frame, self.kernel.now, outcome="completed",
                          **attrs)

    def frame_dropped(self, trace_id: str, **attrs: Any) -> None:
        """Close a frame's root span as dropped (chaos, migration, source)."""
        open_frame = self._open_frames.pop(trace_id, None)
        if open_frame is None:
            return
        self.frames_dropped += 1
        self._close_frame(open_frame, self.kernel.now, outcome="dropped",
                          **attrs)

    def _close_frame(self, open_frame: _OpenFrame, end: float,
                     outcome: str, **attrs: Any) -> None:
        self._append(Span(
            trace_id=open_frame.context.trace_id,
            span_id=open_frame.context.span_id,
            parent_id=None,
            name="frame",
            category=CAT_FRAME,
            start=open_frame.start,
            end=end,
            device=open_frame.device,
            actor=open_frame.actor,
            attrs={"outcome": outcome, **attrs},
        ))

    # -- recording -------------------------------------------------------------
    def record(
        self,
        name: str,
        category: str,
        *,
        parent: SpanContext,
        start: float,
        end: float,
        device: str = "",
        actor: str = "",
        **attrs: Any,
    ) -> SpanContext:
        """Record a completed child span of *parent*; returns its context."""
        context = self.child_context(parent)
        self.record_span(context, name, category, start=start, end=end,
                         device=device, actor=actor, **attrs)
        return context

    def record_span(
        self,
        context: SpanContext,
        name: str,
        category: str,
        *,
        start: float,
        end: float,
        device: str = "",
        actor: str = "",
        **attrs: Any,
    ) -> None:
        """Record a span whose identity was created earlier (so children —
        possibly on other devices — could already parent to it)."""
        self._append(Span(
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=context.parent_id,
            name=name,
            category=category,
            start=start,
            end=end,
            device=device,
            actor=actor,
            attrs=dict(attrs),
        ))

    def annotate(
        self,
        name: str,
        *,
        parent: SpanContext,
        device: str = "",
        actor: str = "",
        **attrs: Any,
    ) -> None:
        """A zero-duration marker (cache hit, admission, completion)."""
        now = self.kernel.now
        self.record(name, CAT_MARK, parent=parent, start=now, end=now,
                    device=device, actor=actor, **attrs)

    def _append(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(span)

    # -- frame events (runtime/observe.py) -------------------------------------
    def _record_at(self, ctx: "ModuleContext", name: str, category: str,
                   parent: SpanContext, start: float, end: float,
                   **attrs: Any) -> None:
        """A span of *ctx*'s module under *parent*."""
        self.record(name, category, parent=parent, start=start, end=end,
                    device=ctx.device_name, actor=ctx.module_name, **attrs)

    def admitted(self, ctx: "ModuleContext", frame_id: int) -> list:
        root = self.frame_started(ctx.pipeline_name, frame_id,
                                  device=ctx.device_name, actor=ctx.module_name)
        self._parents[ctx] = root
        return root.header()

    def enqueued(self, ctx: "ModuleContext", message: "Message") -> None:
        # a message reaches the runtime of its destination's device
        src = message.src
        if (src is not None and src.device != message.dst.device
                and message.sent_at is not None
                and message.delivered_at is not None):
            parent = SpanContext.from_header(message.headers.get(H_TRACE))
            if parent is not None:
                self._record_at(ctx, "wire.transfer", CAT_WIRE, parent,
                                message.sent_at, message.delivered_at,
                                bytes=message.size_bytes, src=src.device)

    def handler_start(self, ctx: "ModuleContext", event: "ModuleEvent") -> None:
        root = SpanContext.from_header(event.headers.get(H_TRACE))
        if root is None:
            self._parents.pop(ctx, None)
            self._handlers.pop(ctx, None)
            return
        now = self.kernel.now
        self._record_at(ctx, "mailbox.wait", CAT_QUEUE, root,
                        event.enqueued_at, now)
        handler = self._parents[ctx] = self.child_context(root)
        self._handlers[ctx] = (handler, now)

    def handler_end(self, ctx: "ModuleContext", event: "ModuleEvent",
                    ok: bool) -> None:
        self._parents.pop(ctx, None)
        open_handler = self._handlers.pop(ctx, None)
        if open_handler is not None:
            handler, started = open_handler
            self.record_span(handler, f"module.{ctx.module_name}",
                             CAT_COMPUTE, start=started, end=self.kernel.now,
                             device=ctx.device_name, actor=ctx.module_name,
                             ok=ok)

    def service_call(self, ctx: "ModuleContext", service: str,
                     stub: "ServiceStub", call: Callable) -> Callable:
        parent = self._parents.get(ctx)
        if parent is None:
            return call

        def traced(payload: Any) -> Any:
            # the call span's identity is minted first, so the callee (local
            # host or remote server) can parent its spans to it; the span
            # itself is recorded when the signal resolves
            call_ctx = self.child_context(parent)
            started, is_local = self.kernel.now, stub.is_local
            signal = call(payload, trace=call_ctx.header())

            def _record(_value: Any, exc: BaseException | None) -> None:
                if not is_local and stub.last_prepare_s > 0:
                    # encode+marshal heads the call window (the stub stamps
                    # it before dispatching)
                    self._record_at(ctx, "rpc.serialize", CAT_SERIALIZE,
                                    call_ctx, started,
                                    started + stub.last_prepare_s)
                self.record_span(
                    call_ctx, f"service.call:{service}", CAT_SERVICE,
                    start=started, end=self.kernel.now,
                    device=ctx.device_name, actor=ctx.module_name,
                    service=service, ok=exc is None,
                )

            if signal.pending:
                signal.wait(_record)
            else:  # a cache hit or an immediate failure: its span ends now
                _record(None, signal.exception)
            return signal

        return traced

    def stage(self, ctx: "ModuleContext", stage: str, seconds: float) -> None:
        parent = self._parents.get(ctx)
        if parent is not None:
            now = self.kernel.now
            self._record_at(ctx, f"stage.{stage}", CAT_STAGE, parent,
                            now - seconds, now)

    def completed(self, ctx: "ModuleContext", frame_id: int) -> None:
        parent = self._parents.get(ctx)
        if parent is not None:
            self.annotate("frame.complete", parent=parent,
                          device=ctx.device_name, actor=ctx.module_name)
        self.frame_finished(trace_id_for(ctx.pipeline_name, frame_id))

    def dropped(self, wiring: "PipelineWiring", frame_id: int, reason: str,
                device: str, actor: str) -> None:
        self.frame_dropped(trace_id_for(wiring.pipeline_name, frame_id),
                           device=device, actor=actor, reason=reason)

    # -- service host events (services/host.py) ----------------------------------
    # *trace* is the call's context as the caller sent it (a header value)

    def _record_served(self, host: "ServiceHost", trace: Any, name: str,
                       category: str, start: float, end: float,
                       **attrs: Any) -> None:
        """A span of *host*'s service under the caller's call span."""
        parent = SpanContext.from_header(trace)
        if parent is not None:
            self.record(name, category, parent=parent, start=start, end=end,
                        device=host.device.name,
                        actor=f"service:{host.service_name}", **attrs)

    def rpc_received(self, host: "ServiceHost", trace: Any,
                     message: "Message") -> None:
        if message.sent_at is not None and message.delivered_at is not None:
            self._record_served(
                host, trace, "rpc.transfer", CAT_WIRE, message.sent_at,
                message.delivered_at, bytes=message.size_bytes,
                src=message.src.device if message.src else "?")

    def cache_hit(self, host: "ServiceHost", trace: Any) -> None:
        now = self.kernel.now
        self._record_served(host, trace, "cache.hit", CAT_MARK, now, now)

    def call_waited(self, host: "ServiceHost", trace: Any, formed: bool,
                    start: float, end: float) -> None:
        """Admission to a worker: the batcher's wait when it *formed* the
        dispatch, the worker queue's otherwise."""
        if end > start:
            self._record_served(
                host, trace,
                "service.batch_wait" if formed else "service.queue",
                CAT_QUEUE, start, end)

    def call_decoded(self, host: "ServiceHost", trace: Any, start: float,
                     end: float) -> None:
        self._record_served(host, trace, "rpc.deserialize", CAT_SERIALIZE,
                            start, end)

    def call_computed(self, host: "ServiceHost", trace: Any, start: float,
                      end: float, batch_size: int | None) -> None:
        """*batch_size* is the formed batch's, ``None`` for a solo call."""
        attrs = {} if batch_size is None else {"batch_size": batch_size}
        self._record_served(host, trace,
                            f"service.compute:{host.service_name}",
                            CAT_COMPUTE, start, end, **attrs)

    # -- introspection ----------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.spans)

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
