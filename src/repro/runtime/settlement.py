"""Settlement: the one way a frame leaves the pipeline early.

The paper drops frames only at the source (§1.4); here a crash, a
migration, a dead letter, a deploy rollback, a canary teardown,
``Pipeline.stop`` and a DATA handler that raises also end frames early —
seven reasons, and all of them go through :func:`settle_payload`
(``docs/AUDIT.md`` §Settlement).

A settlement leaves each dropped frame's §2.3 credit owed on the wiring,
handed straight to the source when the frame's last live copy ends, as is
a ready signal's that failed. A handler that raises still owns its input:
the worker settles it, and a stale ref (released, then raised) is counted
in ``ownership_breaches``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from ..frames.arena import MIGRATED, RELEASED
from ..frames.frame import FrameRef
from ..frames.framestore import FrameStore
from ..frames.payloads import frame_ids_in, release_refs, replace_leaves
from . import observe
from .events import READY_SIGNAL, ModuleEvent

if TYPE_CHECKING:  # pragma: no cover
    from .wiring import PipelineWiring

#: Why a payload was settled: the call site picks one, and each dropped
#: frame is counted under ``frames_dropped.<reason>``.
CRASH = "crash"
MIGRATE = "migrate"
DEAD_LETTER = "dead_letter"
ROLLBACK = "rollback"
SHADOW_RETIRE = "shadow_retire"
STOP = "stop"
HANDLER_FAILED = "handler_failed"

REASONS = (CRASH, MIGRATE, DEAD_LETTER, ROLLBACK, SHADOW_RETIRE, STOP,
           HANDLER_FAILED)

#: Header carrying a DATA message's copy id (:func:`copy_sent`) to the
#: handler or settlement that ends the copy; the runtime adds it after the
#: message is sized, so it costs no wire bytes.
H_COPY = "copy"

_copy_ids = itertools.count(1)

#: Not a settlement: the source's own §2.3 drop, recorded by the same
#: :func:`~repro.runtime.observe.dropped` so the per-reason counters sum to
#: ``frames_dropped`` on every collector.
SOURCE_BUSY = "source_busy"


def settle_payload(
    payload: Any,
    store: FrameStore,
    wiring: "PipelineWiring",
    now: float,
    reason: str,
    actor: str,
    owns_refs: bool = True,
    copy: int | None = None,
) -> None:
    """Settle one payload that will never be handled.

    Each payload copy owns its refs, so every call releases them (unless
    ``owns_refs=False``: a cross-device send already did, at encode). The
    frame leaves the pipeline once: fan-out puts it in several mailboxes,
    or a sibling branch completes it, so the drop is recorded only while
    the collector holds it in flight, and leaves the frame's credit owed.
    It ends the live *copy* it is given. Takes the *wiring*, not a module
    context — a sender may be undeployed when its message dead-letters.
    """
    if owns_refs:
        if reason == HANDLER_FAILED:
            payload = _without_stale_refs(payload, store, wiring, actor)
        release_refs(
            payload, store,
            reason=MIGRATED if reason == MIGRATE else RELEASED,
        )
    for frame_id in frame_ids_in(payload):
        if wiring.metrics.frame_in_flight(frame_id):
            observe.dropped(wiring, frame_id, now, reason, store.device, actor)
            wiring.credits_owed.add(frame_id)
    copy_ended(wiring, copy)


def settle_event(event: ModuleEvent, store: FrameStore, wiring: "PipelineWiring",
                 now: float, reason: str, actor: str) -> None:
    """Settle one queued event; a ready signal hands its credit over."""
    if event.kind == READY_SIGNAL:
        hand_credit(wiring)
    else:
        settle_payload(event.payload, store, wiring, now, reason, actor,
                       copy=event.headers.get(H_COPY))


def copy_sent(wiring: "PipelineWiring", payload: Any) -> int:
    """A DATA message is sent: a live copy of its frames, until its handler
    returns or a settlement ends it. Returns the copy's id."""
    copy = next(_copy_ids)
    wiring.live_copies[copy] = payload
    return copy


def copy_ended(wiring: "PipelineWiring", copy: int | None) -> None:
    """The credit rule: a settled frame's owed credit goes back to the
    source once no live copy carries the frame, and not before."""
    wiring.live_copies.pop(copy, None)
    if not wiring.credits_owed:
        return
    held = {frame_id for payload in wiring.live_copies.values()
            for frame_id in frame_ids_in(payload)}
    for frame_id in sorted(wiring.credits_owed - held):
        wiring.credits_owed.discard(frame_id)
        if wiring.source is not None:  # a canary's shadow has no source
            wiring.metrics.increment("ready_signals")
            hand_credit(wiring)


def hand_credit(wiring: "PipelineWiring") -> None:
    """Give the source a credit no ready signal carries, in its own event."""
    wiring.source.runtime.kernel.schedule(0.0, _deliver_credit, wiring)


def ready_signal_sent(wiring: "PipelineWiring", _value: Any, exc: Any) -> None:
    """``done.wait`` callback: a ready signal that failed hands it over."""
    if exc is not None:
        hand_credit(wiring)


def _deliver_credit(wiring: "PipelineWiring") -> None:
    source = wiring.source  # the deployment now, after any migration
    if source.active:
        source.module.on_ready_signal(source.ctx, ModuleEvent(READY_SIGNAL))


def _without_stale_refs(payload, store, wiring, actor):
    """*payload* minus the refs its failed handler already released: each
    is an ownership breach, counted, and a violation when audited."""
    stale: set[FrameRef] = set()

    def drop(ref: FrameRef) -> FrameRef | None:
        if ref.device == store.device and not store.contains(ref):
            stale.add(ref)
            return None
        return ref

    payload = replace_leaves(payload, FrameRef, drop)
    if stale:
        wiring.metrics.increment("ownership_breaches", len(stale))
        if store.observer is not None:
            store.observer.breached(actor)
    return payload
