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
* a payload is never changed once sent or received: a module forwards a new
  dict (``dict(payload)``). Same-device hops and fan-out share the payload
  object, and the boundary ops share every sub-container they leave as is.
* a module that drops a frame without forwarding it calls ``release``.
* a handler that raises has done neither: the runtime settles its input
  (``runtime/settlement.py``), so release only after a call succeeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import CircuitOpenError, ServiceError
from ..frames.frame import FrameRef, VideoFrame
from ..frames.payloads import add_refs
from ..sim.signals import Signal
from . import observe
from .events import DATA, READY_SIGNAL
from .settlement import SOURCE_BUSY, ready_signal_sent

if TYPE_CHECKING:  # pragma: no cover
    from ..services.stubs import ServiceStub
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
        #: The device this module runs on (a context never moves).
        self.device_name: str = runtime.device.name
        #: The trace context this module's sends carry, unread: the one the
        #: event being handled arrived with, or the one an observer gave
        #: when this module admitted a frame.
        self._carried: Any = None

    # -- identity & clock ------------------------------------------------------
    @property
    def now(self) -> float:
        return self._runtime.kernel.now

    @property
    def metrics(self):
        return self.wiring.metrics

    @property
    def pipeline_name(self) -> str:
        return self.wiring.pipeline_name

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
        # local cache hits resolve synchronously inside call(), so a counter
        # snapshot attributes them to this pipeline's metrics
        host = getattr(stub, "host", None)
        hits_before = host.cache_hits if host is not None else 0
        signal, trace = observe.service_call(self, service_name, stub, payload)
        if signal.pending:
            signal.wait(self._service_ended, service_name, stub, trace)
        else:  # resolved in the call: its end is known now
            self._service_ended(service_name, stub, trace, None,
                                signal.exception)
        if host is not None and host.cache_hits > hits_before:
            self.metrics.increment(f"service_cache_hits.{service_name}")
        return signal

    def _service_ended(self, service_name: str, stub: "ServiceStub",
                       trace: Any, _value: Any,
                       exc: BaseException | None) -> None:
        """The one completion waiter of a service call: it tells the
        observers a traced call ended and counts a rejection."""
        if trace is not None:
            observe.service_returned(self, service_name, stub, trace,
                                     exc is None)
        # a breaker-open rejection arrives either directly or as the
        # __cause__ of the remote stub's ServiceError wrapper
        if isinstance(exc, CircuitOpenError) or isinstance(
            getattr(exc, "__cause__", None), CircuitOpenError
        ):
            self.metrics.increment("service_rejections")

    def has_service(self, service_name: str) -> bool:
        return service_name in self._stubs

    def service_is_local(self, service_name: str) -> bool:
        stub = self._stubs.get(service_name)
        return stub is not None and stub.is_local

    # -- Table 1: call_module ------------------------------------------------------
    def call_module(
        self,
        target_module: str,
        payload: Any,
        headers: dict[str, Any] | None = None,
    ) -> Signal:
        """Send a payload to another module (ownership of refs moves)."""
        return self._runtime.send_to_module(
            self.module_name, target_module, payload, headers or {},
            kind=DATA, wiring=self.wiring, trace=self._carried,
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
        dead_letters: list = []  # copies that failed in the call
        sent = [
            self._runtime.send_to_module(
                self.module_name, target, payload, headers or {},
                kind=DATA, wiring=self.wiring, trace=self._carried,
                dead_letters=dead_letters,
            )
            for target in targets
        ]
        for settle in dead_letters:  # now that every copy is registered
            settle()
        return sent

    @property
    def next_modules(self) -> list[str]:
        return self.wiring.downstream_of(self.module_name)

    # -- §2.3 flow control -----------------------------------------------------------
    def finish(self, frame_id: int) -> Signal | None:
        """The final module is done with *frame_id*: complete it (metrics,
        and its trace closed at this instant) and return the source its
        credit (§2.3). Returns the ready signal, or ``None`` when none was
        sent: a shadow wiring has no source, and a frame ends once —
        finishing a frame a settlement already ended records nothing (its
        ``credits_owed`` entry is paid when its last live copy ends)."""
        if not self.metrics.frame_in_flight(frame_id):
            return None
        observe.completed(self, frame_id)
        return self._signal_source()

    def _signal_source(self) -> Signal | None:
        """Send the source one ready signal; a failed one is handed over."""
        source = self.wiring.source_module
        if source is None:
            return None
        self.metrics.increment("ready_signals")
        done = self._runtime.send_to_module(
            self.module_name, source, None, {}, kind=READY_SIGNAL,
            wiring=self.wiring,
        )
        if done.pending:
            done.wait(ready_signal_sent, self.wiring)
        else:  # failed in the call: this device is down
            ready_signal_sent(self.wiring, None, done.exception)
        return done

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
    def frame_entered(self, frame_id: int,
                      capture_time: float | None = None) -> None:
        """Admit *frame_id*, captured at *capture_time*; this module's sends
        carry the frame's trace context from here on."""
        self._carried = observe.admitted(self, frame_id, capture_time)

    def frame_dropped(self, frame_id: int) -> None:
        """This module dropped *frame_id* before admitting it: the source
        was busy (§2.3)."""
        observe.dropped(self.wiring, frame_id, self.now, SOURCE_BUSY,
                        self.device_name, self.module_name)

    def log(self, text: str) -> None:
        self.wiring.logs.append((self.now, self.module_name, text))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModuleContext {self.module_name}@{self.device_name}>"
