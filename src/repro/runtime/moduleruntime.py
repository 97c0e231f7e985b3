"""The per-device module runtime.

"We design and implement the same runtime environments and input/output
interfaces … With this feature, any processing units in the video
processing pipeline can be executed on any device" (§1). Every device runs
one :class:`ModuleRuntime`; deployed modules get a mailbox and a worker
process that delivers events **one at a time** (the Duktape-context
single-threaded semantics), charging the device CPU for codec work and the
module's own logic.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from ..devices.device import Device
from ..errors import DeploymentError
from ..frames.payloads import decode_frames_from_wire, encode_refs_for_wire
from ..net.address import Address
from ..net.message import H_TRACE, KIND_SIGNAL, Message
from ..net.wire import ENVELOPE_OVERHEAD
from ..net.transport import Transport
from ..sim.kernel import Kernel
from ..sim.resources import Store
from ..sim.signals import Signal
from ..trace.span import CAT_COMPUTE, CAT_QUEUE, CAT_WIRE, SpanContext
from .context import ModuleContext
from .events import DATA, READY_SIGNAL, ModuleEvent
from .module import Module
from .settlement import CRASH, DEAD_LETTER, settle_payload

if TYPE_CHECKING:  # pragma: no cover
    from ..services.stubs import ServiceStub
    from .wiring import PipelineWiring


class DeployedModule:
    """One module instance running on one device."""

    def __init__(
        self,
        runtime: "ModuleRuntime",
        name: str,
        module: Module,
        address: Address,
        ctx: ModuleContext,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.module = module
        self.address = address
        self.ctx = ctx
        self.mailbox = Store(runtime.kernel, name=f"{name}.mailbox")
        self.active = True
        self.events_processed = 0
        self.errors: list[Exception] = []
        self.max_mailbox_depth = 0
        #: Recent per-event sojourn times (enqueue -> handler done), the
        #: always-on health signal canary upgrades compare v1 vs v2 with.
        #: Pure bookkeeping: appending never schedules or charges anything.
        self.handler_samples: deque[float] = deque(maxlen=256)
        #: Canary mirror tap, or ``None``. When set, every arriving DATA
        #: event is offered to it after normal enqueue (the tap decides
        #: whether to copy the event to a shadow deployment — see
        #: :mod:`repro.liveops.upgrade`).
        self.mirror: Callable[[ModuleEvent], None] | None = None

    @property
    def mailbox_depth(self) -> int:
        return len(self.mailbox)

    def settle_queued(self, reason: str) -> int:
        """:func:`~repro.runtime.settlement.settle_payload` every event
        still queued in the mailbox; returns how many there were."""
        runtime = self.runtime
        events = self.mailbox.drain()
        for event in events:
            settle_payload(
                event.payload, runtime.device.frame_store, self.ctx.wiring,
                runtime.kernel.now, reason, self.name,
            )
        return len(events)

    def hand_over_queued(self, successor: "DeployedModule") -> int:
        """Move every queued event, in order, into *successor*'s mailbox
        (same device, so their refs stay valid); returns how many."""
        events = self.mailbox.drain()
        for event in events:
            successor.mailbox.put(event)
        successor.max_mailbox_depth = max(
            successor.max_mailbox_depth, successor.mailbox_depth
        )
        return len(events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DeployedModule {self.name}@{self.address}>"


class ModuleRuntime:
    """Hosts deployed modules on one device and routes their traffic."""

    def __init__(self, kernel: Kernel, device: Device, transport: Transport) -> None:
        self.kernel = kernel
        self.device = device
        self.transport = transport
        self._deployed: dict[str, DeployedModule] = {}
        device.runtime = self

    # -- deployment ---------------------------------------------------------------
    def deploy(
        self,
        name: str,
        module: Module,
        address: Address,
        wiring: "PipelineWiring",
        stubs: dict[str, "ServiceStub"] | None = None,
        run_init: bool = True,
    ) -> DeployedModule:
        """Install a module at *address* and start its event loop.

        ``run_init=False`` re-hosts an already-initialized instance (live
        migration): its encapsulated state is preserved and ``init`` is not
        called again.
        """
        if address.device != self.device.name:
            raise DeploymentError(
                f"module {name!r} addressed to {address.device!r} cannot be"
                f" deployed on {self.device.name!r}"
            )
        if name in self._deployed:
            raise DeploymentError(
                f"module {name!r} already deployed on {self.device.name!r}"
            )
        ctx = ModuleContext(self, name, wiring, stubs or {})
        deployed = DeployedModule(self, name, module, address, ctx)
        self._deployed[name] = deployed
        self.transport.bind(address, lambda msg: self._on_message(deployed, msg))
        if run_init:
            module.init(ctx)
        self.kernel.process(self._worker(deployed), name=f"module:{name}")
        return deployed

    def undeploy(self, name: str) -> None:
        deployed = self._deployed.pop(name, None)
        if deployed is None:
            return
        deployed.active = False
        self.transport.unbind(deployed.address)

    def drop_queued_events(self) -> int:
        """Device-crash semantics: events still queued in mailboxes are lost
        with RAM. Returns the number of events dropped."""
        return sum(
            deployed.settle_queued(CRASH)
            for deployed in self._deployed.values()
        )

    def deployed(self, name: str) -> DeployedModule:
        try:
            return self._deployed[name]
        except KeyError:
            raise DeploymentError(
                f"module {name!r} is not deployed on {self.device.name!r}"
            )

    def deployed_names(self) -> list[str]:
        return sorted(self._deployed)

    # -- sending --------------------------------------------------------------------
    def send_to_module(
        self,
        source_module: str,
        target_module: str,
        payload: Any,
        headers: dict[str, Any],
        kind: str = DATA,
        wiring: "PipelineWiring | None" = None,
    ) -> Signal:
        """Route a payload to a module anywhere in the pipeline.

        Same-device traffic keeps frame refs as refs (the zero-copy path);
        cross-device traffic pays JPEG encode on this device's CPU and the
        network transfer, with refs rematerialized on arrival.

        Callers that already hold the pipeline wiring pass it explicitly —
        a migrated-away module's last in-flight handler must still be able
        to forward its frame even though this runtime no longer lists the
        module as deployed.
        """
        if wiring is None:
            wiring = self._wiring_of(source_module)
        target_address = wiring.address_of(target_module)
        source_address = wiring.address_of(source_module)
        local = target_address.device == self.device.name
        if local:
            done = self.transport.send(self._build_message(
                kind, payload, source_address, target_address, headers,
                local=True,
            ))
        else:
            done = self.kernel.process(
                self._send_remote(
                    kind, payload, source_address, target_address, headers
                ),
                name=f"ship:{source_module}->{target_module}",
            ).done
        if kind == DATA:
            # a data message that dies in flight (listener unbound during a
            # migration, destination crashed) takes its frame with it: the
            # local path still owns the payload's refs, the remote path
            # released them at encode — either way the frame must be
            # accounted as dropped, like a drained mailbox
            done.wait(
                lambda _v, exc: self._dead_letter(
                    source_module, wiring, payload, owns_refs=local
                ) if exc is not None else None
            )
        return done

    def _send_remote(
        self,
        kind: str,
        payload: Any,
        source_address: Address,
        target_address: Address,
        headers: dict[str, Any],
    ):
        wire_payload, encode_cost, shipped = encode_refs_for_wire(
            payload, self.device.frame_store
        )
        if encode_cost > 0:
            yield self.device.cpu.execute_fixed(encode_cost)
        message = self._build_message(
            kind, wire_payload, source_address, target_address, headers
        )
        yield self.transport.send(message)
        return self.kernel.now

    def _dead_letter(
        self,
        source_module: str,
        wiring: "PipelineWiring",
        payload: Any,
        owns_refs: bool,
    ) -> None:
        wiring.metrics.increment("dead_letters")
        settle_payload(
            payload, self.device.frame_store, wiring, self.kernel.now,
            DEAD_LETTER, source_module, owns_refs=owns_refs,
        )

    #: Charged bytes for one intra-device hop through the arena frame
    #: plane: the envelope plus one ``(arena_id, offset, generation)``
    #: handle tuple. The payload itself lives in shared memory.
    ARENA_HOP_BYTES = ENVELOPE_OVERHEAD + 24

    def _build_message(
        self,
        kind: str,
        payload: Any,
        source_address: Address,
        target_address: Address,
        headers: dict[str, Any],
        local: bool = False,
    ) -> Message:
        wire_kind = KIND_SIGNAL if kind == READY_SIGNAL else kind
        headers = dict(headers)
        # the trace context joins event_kind *after* construction: runtime
        # metadata stays outside the charged envelope (message.size_bytes is
        # fixed in __post_init__), so tracing cannot change wire timing
        trace = headers.pop(H_TRACE, None)
        # with the arena frame plane on, an intra-device hop ships only a
        # handle tuple over shared memory: zero charged payload bytes, and
        # no per-hop payload-size tree walk at all
        size = (
            self.ARENA_HOP_BYTES
            if local and self.device.arena is not None else 0
        )
        message = Message(
            kind=wire_kind,
            dst=target_address,
            payload=payload,
            src=source_address,
            headers=headers,
            size_bytes=size,
        )
        message.headers["event_kind"] = kind
        if trace is not None:
            message.headers[H_TRACE] = trace
        return message

    # -- receiving ---------------------------------------------------------------------
    def _on_message(self, deployed: DeployedModule, message: Message) -> None:
        event = ModuleEvent(
            kind=message.headers.get("event_kind", DATA),
            payload=message.payload,
            source_module=None,
            headers=dict(message.headers),
            enqueued_at=self.kernel.now,
        )
        tracer = deployed.ctx.wiring.tracer
        if tracer is not None:
            parent = SpanContext.from_header(message.headers.get(H_TRACE))
            if (
                parent is not None
                and message.src is not None
                and message.src.device != self.device.name
                and message.sent_at is not None
                and message.delivered_at is not None
            ):
                tracer.record(
                    "wire.transfer", CAT_WIRE, parent=parent,
                    start=message.sent_at, end=message.delivered_at,
                    device=self.device.name, actor=deployed.name,
                    bytes=message.size_bytes, src=message.src.device,
                )
        deployed.mailbox.put(event)
        deployed.max_mailbox_depth = max(
            deployed.max_mailbox_depth, deployed.mailbox_depth
        )
        if deployed.mirror is not None and event.kind == DATA:
            # canary mirroring happens after the normal enqueue so v1's
            # delivery order is untouched; the tap copies the event to the
            # shadow deployment on its own (shadow) wiring
            deployed.mirror(event)

    def _worker(self, deployed: DeployedModule):
        module = deployed.module
        while deployed.active:
            event = yield deployed.mailbox.get()
            if not deployed.active:
                # undeployed while this get was in flight: the event already
                # left the mailbox, so no drain saw it
                if event.kind == DATA:
                    self._dead_letter(
                        deployed.name, deployed.ctx.wiring, event.payload,
                        owns_refs=True,
                    )
                break
            # land any encoded frames into the local store (decode cost)
            payload, decode_cost, _ = decode_frames_from_wire(
                event.payload, self.device.frame_store
            )
            event.payload = payload
            if decode_cost > 0:
                yield self.device.cpu.execute_fixed(decode_cost)
            if module.event_overhead_s > 0:
                yield self.device.cpu.execute(module.event_overhead_s)
            # dequeued_at marks handler start: mailbox wait + arrival decode
            # + dispatch overhead are all 'time to load the data' (Fig. 6)
            event.dequeued_at = self.kernel.now
            ctx = deployed.ctx
            lineage = ctx.wiring.lineage
            if lineage is not None and event.kind == DATA:
                lineage.touch_event(ctx, payload)
            tracer = ctx.wiring.tracer
            handler_ctx = None
            if tracer is not None:
                root = SpanContext.from_header(event.headers.get(H_TRACE))
                ctx._trace_root = root
                ctx._trace_span = None
                if root is not None:
                    tracer.record(
                        "mailbox.wait", CAT_QUEUE, parent=root,
                        start=event.enqueued_at, end=self.kernel.now,
                        device=self.device.name, actor=deployed.name,
                    )
                    handler_ctx = tracer.child_context(root)
                    ctx._trace_root = root
                    ctx._trace_span = handler_ctx
                    handler_started = self.kernel.now
            failed = False
            try:
                if event.kind == READY_SIGNAL:
                    result = module.on_ready_signal(deployed.ctx, event)
                else:
                    result = module.event_received(deployed.ctx, event)
                if inspect.isgenerator(result):
                    yield self.kernel.process(
                        result, name=f"{deployed.name}.handler"
                    )
            except Exception as exc:  # a module crash must not kill the device
                failed = True
                deployed.errors.append(exc)
                deployed.ctx.metrics.increment("module_errors")
            if handler_ctx is not None:
                tracer.record_span(
                    handler_ctx, f"module.{deployed.name}", CAT_COMPUTE,
                    start=handler_started, end=self.kernel.now,
                    device=self.device.name, actor=deployed.name,
                    ok=not failed,
                )
            if tracer is not None:
                ctx._trace_root = None
                ctx._trace_span = None
            if event.kind == DATA:
                deployed.handler_samples.append(
                    self.kernel.now - event.enqueued_at
                )
            deployed.events_processed += 1

    def _wiring_of(self, module_name: str) -> "PipelineWiring":
        return self.deployed(module_name).ctx.wiring
