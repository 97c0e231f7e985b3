"""The frame events: the runtime says once what happened to a frame.

Each event has one emit function here, which the runtime calls where the
event happens (the canary's mirror tap also admits its copies, on the shadow
wiring). It updates the pipeline's collector first (the in-flight state
settlement guards on), then tells each observer in the wiring's
``observers`` tuple, which only ``VideoPipe._wire*`` builds: the tracer, the
lineage recorder, the auditor's frame mirror. Observers are passive — no
kernel event, no randomness, no message size — so an observed run is the
run without them. DESIGN.md "The frame events" lists each event's fields,
emitter and observers. Only the runtime times a Fig. 6 stage (docs/PERF.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..net.message import Message
    from ..services.stubs import ServiceStub
    from ..sim.signals import Signal
    from .context import ModuleContext
    from .events import ModuleEvent
    from .wiring import PipelineWiring


class FrameObserver:
    """Every frame event, as a no-op; a subscriber overrides what it uses."""

    __slots__ = ()

    def admitted(self, ctx: "ModuleContext", frame_id: int) -> Any:
        """May return the trace context the module's sends then carry."""
        return None

    def enqueued(self, ctx: "ModuleContext", message: "Message") -> None:
        pass

    def handler_start(self, ctx: "ModuleContext", event: "ModuleEvent") -> None:
        pass

    def handler_end(self, ctx: "ModuleContext", event: "ModuleEvent",
                    ok: bool) -> None:
        pass

    def service_call(self, ctx: "ModuleContext", service: str,
                     stub: "ServiceStub") -> Any:
        """May return the trace context the call carries; the observer that
        gives one is told, by :meth:`service_returned`, when it ended."""
        return None

    def service_returned(self, ctx: "ModuleContext", service: str,
                         stub: "ServiceStub", trace: Any, ok: bool) -> None:
        pass

    def stage(self, ctx: "ModuleContext", stage: str, seconds: float) -> None:
        pass

    def completed(self, ctx: "ModuleContext", frame_id: int) -> None:
        pass

    def dropped(self, wiring: "PipelineWiring", frame_id: int, reason: str,
                device: str, actor: str) -> None:
        pass


def admitted(ctx: "ModuleContext", frame_id: int,
             capture_time: float | None = None) -> Any:
    """Returns the trace context the admitting module's sends carry."""
    ctx.wiring.metrics.frame_entered(frame_id, ctx.now, capture_time)
    carried = None
    for observer in ctx.wiring.observers:
        carried = observer.admitted(ctx, frame_id) or carried
    return carried


def enqueued(ctx: "ModuleContext", message: "Message") -> None:
    for observer in ctx.wiring.observers:
        observer.enqueued(ctx, message)


def handler_start(ctx: "ModuleContext", event: "ModuleEvent") -> None:
    for observer in ctx.wiring.observers:
        observer.handler_start(ctx, event)


def handler_end(ctx: "ModuleContext", event: "ModuleEvent", ok: bool) -> None:
    for observer in ctx.wiring.observers:
        observer.handler_end(ctx, event, ok)


def service_call(ctx: "ModuleContext", service: str, stub: "ServiceStub",
                 payload: Any) -> tuple["Signal", Any]:
    """Call *service* through *stub* with the trace context an observer
    gives; the call's signal and that context."""
    trace = None
    for observer in ctx.wiring.observers:
        trace = observer.service_call(ctx, service, stub) or trace
    return stub.call(payload, trace=trace), trace


def service_returned(ctx: "ModuleContext", service: str, stub: "ServiceStub",
                     trace: Any, ok: bool) -> None:
    """A traced call ended: in its resolving event, or in the call."""
    for observer in ctx.wiring.observers:
        observer.service_returned(ctx, service, stub, trace, ok)


def stage(ctx: "ModuleContext", name: str, seconds: float) -> None:
    ctx.wiring.metrics.stage_timed(name, seconds)
    for observer in ctx.wiring.observers:
        observer.stage(ctx, name, seconds)


def completed(ctx: "ModuleContext", frame_id: int) -> None:
    """A sink (no next module) times the frame's Total Duration."""
    wiring, now = ctx.wiring, ctx.now
    captured = wiring.metrics.frame_completed(frame_id, now)
    if captured is not None and not wiring.next_modules.get(ctx.module_name):
        stage(ctx, "total_duration", now - captured)  # capture → completion
    for observer in wiring.observers:
        observer.completed(ctx, frame_id)


def dropped(wiring: "PipelineWiring", frame_id: int, now: float, reason: str,
            device: str, actor: str) -> None:
    """The one way a drop is recorded: a busy source's, or a settlement's."""
    metrics = wiring.metrics
    metrics.frame_dropped(frame_id, now)
    metrics.increment(f"frames_dropped.{reason}")
    for observer in wiring.observers:
        observer.dropped(wiring, frame_id, reason, device, actor)
