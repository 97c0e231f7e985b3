"""The module context: everything a module may do, and nothing more.

Implements the callable half of Table 1 (``call_service``, ``call_module``)
plus frame-reference management and the §2.3 flow-control signal. The
context is created per deployed module by the runtime; module code receives
it in every callback.

Frame-reference ownership contract (the paper's minimal-copy design):

* ``store_frame`` gives the module one hold on the new reference.
* ``call_module`` / ``call_next`` **move** every reference in the payload to
  the receiver(s); the sender must not use them afterwards.
* ``call_service`` **borrows**: refs stay owned by the module.
* a module that drops a frame without forwarding it calls ``release``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import CircuitOpenError, ServiceError
from ..frames.frame import FrameRef, VideoFrame
from ..frames.payloads import add_refs
from ..sim.signals import Signal
from ..trace.span import (
    CAT_SERIALIZE,
    CAT_SERVICE,
    CAT_STAGE,
    SpanContext,
    trace_id_for,
)
from .events import DATA, READY_SIGNAL
from .settlement import SOURCE_BUSY

if TYPE_CHECKING:  # pragma: no cover
    from ..services.stubs import ServiceStub
    from ..trace.recorder import TraceRecorder
    from .moduleruntime import ModuleRuntime
    from .wiring import PipelineWiring


class ModuleContext:
    """Per-deployed-module API surface."""

    def __init__(
        self,
        runtime: "ModuleRuntime",
        module_name: str,
        wiring: "PipelineWiring",
        stubs: dict[str, "ServiceStub"],
    ) -> None:
        self._runtime = runtime
        self.module_name = module_name
        self.wiring = wiring
        self._stubs = stubs
        # Ambient trace state for the event currently being handled. Safe
        # as instance state because the runtime worker delivers events one
        # at a time per module (single-threaded Duktape semantics): the
        # fields are set before the handler runs and cleared after it
        # finishes, including across generator suspensions.
        #: the frame's root span — what outgoing messages propagate.
        self._trace_root: SpanContext | None = None
        #: the current handler span — what child spans parent to.
        self._trace_span: SpanContext | None = None

    # -- identity & clock ------------------------------------------------------
    @property
    def device_name(self) -> str:
        return self._runtime.device.name

    @property
    def now(self) -> float:
        return self._runtime.kernel.now

    @property
    def metrics(self):
        return self.wiring.metrics

    @property
    def pipeline_name(self) -> str:
        return self.wiring.pipeline_name

    @property
    def tracer(self) -> "TraceRecorder | None":
        """The home's trace recorder, or ``None`` while tracing is off."""
        return self.wiring.tracer

    def rng(self, purpose: str) -> np.random.Generator:
        return self._runtime.device.local_rng(f"module/{self.module_name}/{purpose}")

    # -- Table 1: call_service ---------------------------------------------------
    def call_service(self, service_name: str, payload: Any) -> Signal:
        """Invoke a (co-located or remote) stateless service.

        Returns a signal with the service result; yield it from an
        ``event_received`` generator to wait.
        """
        stub = self._stubs.get(service_name)
        if stub is None:
            raise ServiceError(
                f"module {self.module_name!r} did not declare service"
                f" {service_name!r} in its configuration"
            )
        self.metrics.increment(f"service_calls.{service_name}")
        metrics = self.metrics

        def _count_rejection(_value: Any, exc: BaseException | None) -> None:
            # a breaker-open rejection arrives either directly or as the
            # __cause__ of the remote stub's ServiceError wrapper
            if isinstance(exc, CircuitOpenError) or isinstance(
                getattr(exc, "__cause__", None), CircuitOpenError
            ):
                metrics.increment("service_rejections")

        # local cache hits resolve synchronously inside call(), so a counter
        # snapshot attributes them to this pipeline's metrics
        host = getattr(stub, "host", None)
        hits_before = host.cache_hits if host is not None else 0
        tracer = self.tracer
        if tracer is not None and self._trace_span is not None:
            # pre-mint the call span's identity so the callee (local host or
            # remote server) can parent its queue/compute spans to it; the
            # span itself is recorded when the signal resolves
            call_ctx = tracer.child_context(self._trace_span)
            started = self.now
            signal = stub.call(payload, trace=call_ctx)
            device, actor = self.device_name, self.module_name
            is_local = stub.is_local

            def _record(_value: Any, exc: BaseException | None) -> None:
                if not is_local and stub.last_prepare_s > 0:
                    # the encode+marshal interval sits at the head of the
                    # call window (the stub stamps it before dispatching)
                    tracer.record(
                        "rpc.serialize", CAT_SERIALIZE, parent=call_ctx,
                        start=started, end=started + stub.last_prepare_s,
                        device=device, actor=actor,
                    )
                tracer.record_span(
                    call_ctx, f"service.call:{service_name}", CAT_SERVICE,
                    start=started, end=tracer.kernel.now,
                    device=device, actor=actor,
                    service=service_name, ok=exc is None,
                )

            signal.wait(_record)
        else:
            signal = stub.call(payload)
        signal.wait(_count_rejection)
        if host is not None and host.cache_hits > hits_before:
            self.metrics.increment(f"service_cache_hits.{service_name}")
        return signal

    def has_service(self, service_name: str) -> bool:
        return service_name in self._stubs

    def service_is_local(self, service_name: str) -> bool:
        stub = self._stubs.get(service_name)
        return stub is not None and stub.is_local

    def service_prepare_s(self, service_name: str) -> float:
        """Request-materialization time of the last call to this service
        (JPEG encode for remote frame payloads; ~0 for reference passing)."""
        stub = self._stubs.get(service_name)
        return stub.last_prepare_s if stub is not None else 0.0

    # -- Table 1: call_module ------------------------------------------------------
    def _trace_headers(self, headers: dict[str, Any] | None) -> dict[str, Any]:
        """Outgoing headers with the frame's root trace context attached
        (when tracing is on and this event belongs to a traced frame)."""
        from ..net.message import H_TRACE

        out = dict(headers) if headers else {}
        if self.tracer is not None and self._trace_root is not None:
            out[H_TRACE] = self._trace_root.header()
        return out

    def call_module(
        self,
        target_module: str,
        payload: Any,
        headers: dict[str, Any] | None = None,
    ) -> Signal:
        """Send a payload to another module (ownership of refs moves)."""
        return self._runtime.send_to_module(
            self.module_name, target_module, payload,
            self._trace_headers(headers), kind=DATA, wiring=self.wiring
        )

    def call_next(
        self, payload: Any, headers: dict[str, Any] | None = None
    ) -> list[Signal]:
        """Send the same payload to every configured ``next_module``.

        Fan-out takes the extra reference holds the receivers will each
        consume.
        """
        targets = self.wiring.downstream_of(self.module_name)
        if not targets:
            return []
        for _ in range(len(targets) - 1):
            add_refs(payload, self._runtime.device.frame_store)
        return [
            self._runtime.send_to_module(
                self.module_name, target, payload,
                self._trace_headers(headers), kind=DATA, wiring=self.wiring
            )
            for target in targets
        ]

    @property
    def next_modules(self) -> list[str]:
        return self.wiring.downstream_of(self.module_name)

    # -- §2.3 flow control -----------------------------------------------------------
    def signal_source(self) -> Signal | None:
        """Tell the pipeline source this frame is done (credit refill)."""
        source = self.wiring.source_module
        if source is None:
            return None
        self.metrics.increment("ready_signals")
        return self._runtime.send_to_module(
            self.module_name, source, None, {}, kind=READY_SIGNAL,
            wiring=self.wiring,
        )

    # -- frame references ---------------------------------------------------------------
    def store_frame(self, frame: VideoFrame | Any) -> FrameRef:
        """Park an object in the device store; the module owns one hold."""
        return self._runtime.device.frame_store.put(frame)

    def get_frame(self, ref: FrameRef) -> Any:
        """Resolve a reference without copying or consuming it."""
        return self._runtime.device.frame_store.get(ref)

    def add_ref(self, ref: FrameRef) -> FrameRef:
        return self._runtime.device.frame_store.add_ref(ref)

    def release(self, ref: FrameRef) -> None:
        self._runtime.device.frame_store.release(ref)

    # -- instrumentation -----------------------------------------------------------------
    def frame_entered(self, frame_id: int) -> None:
        """Admit *frame_id* into the pipeline: metrics bookkeeping plus —
        when tracing is on — the frame's root span, which this module's
        outgoing sends will propagate."""
        self.metrics.frame_entered(frame_id, self.now)
        tracer = self.tracer
        if tracer is not None:
            root = tracer.frame_started(
                self.pipeline_name, frame_id,
                device=self.device_name, actor=self.module_name,
            )
            self._trace_root = root
            self._trace_span = root

    def frame_completed(self, frame_id: int) -> None:
        """The pipeline is done with *frame_id*: metrics bookkeeping plus
        closing the frame's trace at the completion instant."""
        self.metrics.frame_completed(frame_id, self.now)
        tracer = self.tracer
        if tracer is not None:
            trace_id = trace_id_for(self.pipeline_name, frame_id)
            if self._trace_span is not None:
                tracer.annotate(
                    "frame.complete", parent=self._trace_span,
                    device=self.device_name, actor=self.module_name,
                )
            tracer.frame_finished(trace_id)

    def frame_dropped(self, frame_id: int) -> None:
        """This module dropped *frame_id* (a source-side drop): prune its
        metrics entry and close its trace — if it ever had one."""
        self.metrics.frame_dropped(frame_id, self.now)
        self.metrics.increment(f"frames_dropped.{SOURCE_BUSY}")
        tracer = self.tracer
        if tracer is not None:
            tracer.frame_dropped(
                trace_id_for(self.pipeline_name, frame_id),
                device=self.device_name, actor=self.module_name,
            )

    def record_stage(self, stage: str, seconds: float) -> None:
        """Record one latency sample for a named pipeline stage.

        With tracing on, the sample is mirrored as a ``stage.<name>`` span
        ending now — so trace-derived stage means cross-check the
        collector's exactly (see ``docs/TRACING.md``).
        """
        self.metrics.record_stage(stage, seconds)
        tracer = self.tracer
        if tracer is not None and self._trace_span is not None:
            tracer.record(
                f"stage.{stage}", CAT_STAGE, parent=self._trace_span,
                start=self.now - seconds, end=self.now,
                device=self.device_name, actor=self.module_name,
            )

    def log(self, text: str) -> None:
        self.wiring.logs.append((self.now, self.module_name, text))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModuleContext {self.module_name}@{self.device_name}>"
