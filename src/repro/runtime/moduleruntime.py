"""The per-device module runtime.

"We design and implement the same runtime environments and input/output
interfaces … With this feature, any processing units in the video
processing pipeline can be executed on any device" (§1). Every device runs
one :class:`ModuleRuntime`; deployed modules get a mailbox and a worker
process that delivers events **one at a time** (the Duktape-context
single-threaded semantics), charging the device CPU for codec work and the
module's own logic, and timing each handler of a module with a ``stage``.
"""

from __future__ import annotations

import functools
from collections import deque
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable

from ..devices.device import Device
from ..errors import DeploymentError
from ..frames.codec import EncodedFrame
from ..frames.payloads import decode_frames_from_wire, encode_refs_for_wire
from ..net.address import Address
from ..net.message import H_TRACE, KIND_SIGNAL, Message
from ..net.wire import ENVELOPE_OVERHEAD
from ..net.transport import Transport
from ..sim.kernel import Kernel
from ..sim.resources import Store
from ..sim.signals import FAILED, SUCCEEDED, Signal, hand_off
from . import observe, settlement
from .context import ModuleContext
from .events import DATA, READY_SIGNAL, ModuleEvent
from .module import Module

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
        """:func:`~repro.runtime.settlement.settle_event` every event
        still queued in the mailbox; returns how many there were."""
        runtime = self.runtime
        events = self.mailbox.drain()
        for event in events:
            settlement.settle_event(
                event, runtime.device.frame_store, self.ctx.wiring,
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
        if name == wiring.source_module:
            wiring.source = deployed
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
            deployed.settle_queued(settlement.CRASH)
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
        *,
        wiring: "PipelineWiring",
        trace: Any = None,
        dead_letters: list | None = None,
    ) -> Signal:
        """Route a payload to a module anywhere in the pipeline.

        Same-device traffic keeps frame refs as refs (the zero-copy path);
        cross-device traffic pays JPEG encode on this device's CPU and the
        network transfer, with refs rematerialized on arrival.

        The caller passes the pipeline *wiring* it holds — a migrated-away
        module's last in-flight handler must still be able to forward its
        frame even though this runtime no longer lists the module as
        deployed. *trace* is the sender's trace context, carried uncharged.

        A DATA copy whose send already failed in the call (this device is
        down) is dead-lettered there — or, given *dead_letters*, appended
        to it for the caller to settle once its fan-out has registered
        every copy: a copy settled before its siblings exist would hand
        back a credit they still carry.
        """
        target_address = wiring.address_of(target_module)
        source_address = wiring.address_of(source_module)
        local = target_address.device == self.device.name
        copy = settlement.copy_sent(wiring, payload) if kind == DATA else None
        headers = {**headers, settlement.H_COPY: copy, H_TRACE: trace}
        if local:
            done = self.transport.send(self._build_message(
                kind, payload, source_address, target_address, headers,
                local=True,
            ))
        else:
            # a ship starts where a process would: at the back of the drain
            # now running, else in one zero-delay event of its own
            done = Signal(self.kernel, "ship")
            hand_off(self.kernel, ((self._ship, (
                done, kind, payload, source_address, target_address, headers,
            )),), None, None)
        if kind == DATA:
            # a data message that dies in flight (listener unbound during a
            # migration, destination crashed) takes its frame with it: the
            # local path still owns the payload's refs, the remote path
            # released them at encode — either way the frame must be
            # accounted as dropped, like a drained mailbox
            if done.pending:
                done.wait(self._dead_letter, source_module, wiring, payload,
                          local, copy)
            elif dead_letters is None:
                self._dead_letter(source_module, wiring, payload, local, copy,
                                  None, done.exception)
            else:
                dead_letters.append(functools.partial(
                    self._dead_letter, source_module, wiring, payload, local,
                    copy, None, done.exception))
        return done

    def _ship(self, done: Signal, kind: str, payload: Any,
              source_address: Address, target_address: Address,
              headers: dict[str, Any], _value: Any, _exc: Any) -> None:
        """A cross-device send's first step. A ship is three waiters —
        encode on this device's CPU, transmit, settle — and resolves its
        ``done`` as a process's end would, inside the event that resolves
        the send."""
        try:
            wire_payload, encode_cost, _ = encode_refs_for_wire(
                payload, self.device.frame_store
            )
        except Exception as error:  # a stale ref: the ship fails
            return done._settle(FAILED, None, error)
        args = (done, kind, wire_payload, source_address, target_address,
                headers)
        if encode_cost > 0:
            self.device.cpu.execute_fixed(encode_cost).wait(
                self._transmit, *args)
        else:
            self._transmit(*args, None, None)

    def _transmit(self, done: Signal, kind: str, wire_payload: Any,
                  source_address: Address, target_address: Address,
                  headers: dict[str, Any], _value: Any, _exc: Any) -> None:
        try:
            sent = self.transport.send(self._build_message(
                kind, wire_payload, source_address, target_address, headers
            ))
        except Exception as error:  # a payload the wire cannot size
            return done._settle(FAILED, None, error)
        if sent.pending:
            sent.wait(self._shipped, done)
        else:  # failed in the call: this device is down
            self._shipped(done, None, sent.exception)

    def _shipped(self, done: Signal, _value: Any,
                 exc: BaseException | None) -> None:
        if exc is None:
            done._settle(SUCCEEDED, self.kernel.now, None)
        else:
            done._settle(FAILED, None, exc)

    def _dead_letter(
        self,
        source_module: str,
        wiring: "PipelineWiring",
        payload: Any,
        owns_refs: bool,
        copy: int | None,
        _value: Any,
        exc: BaseException | None,
    ) -> None:
        """``done.wait`` callback of a DATA send: a failed one settles its
        copy as a dead letter."""
        if exc is None:
            return
        wiring.metrics.increment("dead_letters")
        settlement.settle_payload(
            payload, self.device.frame_store, wiring, self.kernel.now,
            settlement.DEAD_LETTER, source_module, owns_refs, copy,
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
        # the trace context and a DATA copy's id join event_kind *after*
        # construction: runtime metadata stays outside the charged envelope
        # (message.size_bytes is fixed in __post_init__), so neither can
        # change wire timing
        trace = headers.pop(H_TRACE, None)
        copy = headers.pop(settlement.H_COPY, None)
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
        message.headers[settlement.H_COPY] = copy
        if trace is not None:
            message.headers[H_TRACE] = trace
        return message

    # -- receiving ---------------------------------------------------------------------
    def _on_message(self, deployed: DeployedModule, message: Message) -> None:
        # landing is skipped only when the size walk saw every leaf and
        # none was an encoded frame; an arena hop's size was never walked
        hinted = message.hinted
        event = ModuleEvent(
            kind=message.headers.get("event_kind", DATA),
            payload=message.payload,
            source_module=None,
            headers=dict(message.headers),
            enqueued_at=self.kernel.now,
            lands=hinted is None or any(
                isinstance(leaf, EncodedFrame) for leaf in hinted
            ),
        )
        observe.enqueued(deployed.ctx, message)
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
                    deployed.ctx.wiring.metrics.increment("dead_letters")
                settlement.settle_event(
                    event, self.device.frame_store, deployed.ctx.wiring,
                    self.kernel.now, settlement.DEAD_LETTER, deployed.name,
                )
                break
            payload = event.payload
            if event.lands:
                # land the encoded frames into the local store (decode cost)
                payload, decode_cost, _ = decode_frames_from_wire(
                    payload, self.device.frame_store
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
            ctx._carried = event.headers.get(H_TRACE)
            observe.handler_start(ctx, event)
            failed = False
            try:
                if event.kind == READY_SIGNAL:
                    result = module.on_ready_signal(deployed.ctx, event)
                else:
                    result = module.event_received(deployed.ctx, event)
                if type(result) is GeneratorType:  # runs in this worker
                    yield from result
            except Exception as exc:  # a module crash must not kill the device
                failed = True
                deployed.errors.append(exc)
                ctx.metrics.increment("module_errors")
                if event.kind == DATA:
                    # the one place a raising handler's frame ends: it has
                    # neither released nor forwarded its input, so the refs
                    # are still its own (docs/AUDIT.md §Settlement)
                    settlement.settle_payload(
                        payload, self.device.frame_store, ctx.wiring,
                        self.kernel.now, settlement.HANDLER_FAILED, deployed.name,
                    )
            if module.stage is not None and not failed and event.kind == DATA:
                handled = self.kernel.now - event.dequeued_at
                if module.load_stage is not None:  # the wait, + its prepare
                    prepare = ctx._stubs[module.service].last_prepare_s
                    observe.stage(ctx, module.load_stage,
                                  event.queueing_delay + prepare)
                    handled -= prepare
                observe.stage(ctx, module.stage, handled)
            observe.handler_end(ctx, event, not failed)
            ctx._carried = None
            if event.kind == DATA:
                settlement.copy_ended(ctx.wiring, event.headers.get(settlement.H_COPY))
                deployed.handler_samples.append(
                    self.kernel.now - event.enqueued_at
                )
            deployed.events_processed += 1
