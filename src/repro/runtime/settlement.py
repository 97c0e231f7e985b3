"""Settlement: the one way a frame leaves the pipeline early.

The paper drops frames only at the source (§1.4); here a crash, a
migration, a dead letter, a deploy rollback, a canary teardown and
``Pipeline.stop`` also end frames early, and all of them go through
:func:`settle_payload` (``docs/AUDIT.md`` §Settlement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from ..frames.arena import MIGRATED, RELEASED
from ..frames.framestore import FrameStore
from ..frames.payloads import frame_ids_in, release_refs
from ..trace.span import trace_id_for

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.collector import MetricsCollector
    from .wiring import PipelineWiring

#: Why a payload was settled: the call site picks one, and each dropped
#: frame is counted under ``frames_dropped.<reason>``.
CRASH = "crash"
MIGRATE = "migrate"
DEAD_LETTER = "dead_letter"
ROLLBACK = "rollback"
SHADOW_RETIRE = "shadow_retire"
STOP = "stop"

REASONS = (CRASH, MIGRATE, DEAD_LETTER, ROLLBACK, SHADOW_RETIRE, STOP)

#: Not a settlement: the source's own §2.3 drop, counted under the same
#: ``frames_dropped.<reason>`` scheme by ``ModuleContext.frame_dropped`` so
#: the per-reason counters sum to ``frames_dropped`` on every collector.
SOURCE_BUSY = "source_busy"


def unsettled_frames(
    payload: Any, metrics: "MetricsCollector"
) -> Iterator[int]:
    """The frames *payload* carries that *metrics* still holds in flight —
    the guard that makes settling idempotent across payload copies."""
    for frame_id in frame_ids_in(payload):
        if metrics.frame_in_flight(frame_id):
            yield frame_id


def settle_payload(
    payload: Any,
    store: FrameStore,
    wiring: "PipelineWiring",
    now: float,
    reason: str,
    actor: str,
    owns_refs: bool = True,
) -> None:
    """Settle one payload that will never be handled.

    Each payload copy owns its refs, so every call releases them (unless
    ``owns_refs=False``: a cross-device send already did, at encode). The
    frame leaves the pipeline once: fan-out puts it in several mailboxes,
    or a sibling branch completes it, so the drop is recorded only while
    the collector holds it in flight. Takes the *wiring*, not a module
    context — a sender may be undeployed when its message dead-letters.
    """
    if owns_refs:
        release_refs(
            payload, store,
            reason=MIGRATED if reason == MIGRATE else RELEASED,
        )
    metrics = wiring.metrics
    tracer = wiring.tracer
    for frame_id in unsettled_frames(payload, metrics):
        metrics.frame_dropped(frame_id, now)
        metrics.increment(f"frames_dropped.{reason}")
        if tracer is not None:
            tracer.frame_dropped(
                trace_id_for(wiring.pipeline_name, frame_id),
                device=store.device, actor=actor,
            )
