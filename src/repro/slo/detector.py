"""Overload detection: classify a pipeline's live state against its SLO.

The detector is read-only. Each reading combines three signals that already
exist in the system — the pipeline's completion stream (latency tail and
delivered fps, via :meth:`MetricsCollector.latency_events
<repro.metrics.collector.MetricsCollector.latency_events>`), and queue
pressure on the services the pipeline calls (via
:func:`~repro.services.balancer.service_pressure`) — into one of three
states:

* ``healthy`` — every signal inside its target;
* ``strained`` — a target is being missed but not badly: the hold band.
  The controller takes no action here, which is what gives the closed loop
  its hysteresis;
* ``overloaded`` — the tail latency ratio or queue pressure crossed the
  overload threshold, or delivered fps fell well under the minimum. The
  controller degrades one ladder step.

The no-queue credit gate (§2.3) shapes what overload looks like: a
pipeline sharing a saturated service does not build an internal backlog —
its per-frame latency stretches (queueing at the service host) and its
delivered fps sags. Both show up in the completion stream, which is why
the detector reads that rather than mailbox depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..services.balancer import service_pressure
from .spec import HEALTHY, OVERLOADED, STRAINED, SLO, quantile

if TYPE_CHECKING:  # pragma: no cover
    from ..core.videopipe import VideoPipe
    from ..pipeline.pipeline import Pipeline

#: Observed-tail / target latency ratio at (or above) which a pipeline is
#: ``overloaded``; ratios in ``(1, OVERLOAD_RATIO)`` are the ``strained``
#: hold band.
OVERLOAD_RATIO = 1.25
#: Delivered / minimum fps ratio *below* which a pipeline is
#: ``overloaded``; ``[FPS_OVERLOAD_FRAC, 1)`` is ``strained``.
FPS_OVERLOAD_FRAC = 0.75
#: Service-queue pressure (:func:`~repro.services.balancer.service_pressure`)
#: at which a pipeline counts as strained, and as overloaded.
QUEUE_STRAIN = 1.0
QUEUE_OVERLOAD = 6.0
#: Completions needed in the window before the latency/fps ratios are
#: trusted (a cold start is not judged).
MIN_SAMPLES = 3


@dataclass(frozen=True, slots=True)
class DetectorReading:
    """One classification instant for one pipeline."""

    at: float
    state: str
    latency_ratio: float
    fps_ratio: float
    queue_pressure: float
    samples: int
    paused: bool = False


def classify_signals(
    slo: SLO,
    *,
    at: float,
    latency_ratio: float,
    fps_ratio: float,
    queue_pressure: float,
    samples: int,
    ever_completed: bool,
    paused: bool = False,
) -> DetectorReading:
    """Pure classification rules over already-gathered signals.

    A *paused* pipeline (the ladder's last rung) emits no frames, so its
    latency/fps ratios are meaningless — it is judged on queue pressure
    alone, which is also its recovery signal: once the services it shares
    drain, the pipeline reads healthy and the controller resumes it.
    """
    if paused:
        if queue_pressure >= QUEUE_OVERLOAD:
            state = OVERLOADED
        elif queue_pressure >= QUEUE_STRAIN:
            state = STRAINED
        else:
            state = HEALTHY
        return DetectorReading(
            at=at, state=state, latency_ratio=latency_ratio,
            fps_ratio=fps_ratio, queue_pressure=queue_pressure,
            samples=samples, paused=True,
        )
    trusted = samples >= MIN_SAMPLES
    # a pipeline that completed frames before but produced none in the
    # whole window has stalled: fps_ratio 0 is real, not a cold start
    stalled = ever_completed and samples == 0
    overloaded = (
        (trusted and latency_ratio >= OVERLOAD_RATIO)
        or ((trusted or stalled) and fps_ratio < FPS_OVERLOAD_FRAC)
        or queue_pressure >= QUEUE_OVERLOAD
    )
    strained = (
        (trusted and latency_ratio > 1.0)
        or ((trusted or stalled) and fps_ratio < 1.0)
        or queue_pressure >= QUEUE_STRAIN
    )
    state = OVERLOADED if overloaded else (STRAINED if strained else HEALTHY)
    return DetectorReading(
        at=at, state=state, latency_ratio=latency_ratio, fps_ratio=fps_ratio,
        queue_pressure=queue_pressure, samples=samples, paused=False,
    )


class OverloadDetector:
    """Gathers live signals from a home and classifies each pipeline."""

    def __init__(self, home: "VideoPipe") -> None:
        self.home = home

    def reading(
        self,
        pipeline: "Pipeline",
        slo: SLO,
        *,
        enrolled_at: float = 0.0,
        paused: bool = False,
    ) -> DetectorReading:
        """Classify *pipeline* now."""
        now = self.home.kernel.now
        events = pipeline.metrics.latency_events()
        # scale the window down right after enrollment so a cold pipeline's
        # first seconds aren't judged as a dropped frame rate
        window = min(slo.window_s, max(now - enrolled_at, 1e-9))
        cutoff = now - window
        recent: list[float] = []
        for at, latency in reversed(events):
            if at <= cutoff:
                break
            recent.append(latency)
        samples = len(recent)
        fps_ratio = (samples / window) / slo.min_fps
        latency_ratio = (
            quantile(recent, 0.99) / slo.p99_latency_s if recent else 0.0
        )
        return classify_signals(
            slo,
            at=now,
            latency_ratio=latency_ratio,
            fps_ratio=fps_ratio,
            queue_pressure=self.queue_pressure(pipeline),
            samples=samples,
            ever_completed=bool(events),
            paused=paused,
        )

    def queue_pressure(self, pipeline: "Pipeline") -> float:
        """Total backlog on the services this pipeline's modules call."""
        services: set[str] = set()
        for name in pipeline.config.module_names():
            services.update(pipeline.config.module(name).services)
        return sum(
            service_pressure(self.home.registry, service)
            for service in sorted(services)
        )
