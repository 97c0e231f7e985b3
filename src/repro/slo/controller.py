"""The SLO controller: a closed loop from detection to actuation.

Every ``check_interval_s`` the controller classifies each enrolled
pipeline (:class:`~repro.slo.detector.OverloadDetector`) and actuates the
degradation ladder (:mod:`repro.slo.ladder`):

* ``overloaded`` — apply the next rung (one per action);
* ``strained`` — hold: the band between thresholds is the loop's
  hysteresis in *state* space;
* ``healthy`` for ``recovery_hold_s`` — restore the most recent rung, so
  recovery retraces the ladder in exactly reverse order back to full
  fidelity.

Actions on one pipeline are additionally spaced ``hysteresis_s`` apart in
*time*, whichever direction they go — the auditor's ladder invariants
(:meth:`~repro.audit.auditor.InvariantAuditor.on_slo_action`) hold the
controller to that.

The controller also owns deploy-time admission
(:class:`~repro.slo.admission.AdmissionController`) and the queue of
deploys admission parked; its loop re-prices the queue head each tick and
deploys it when capacity has returned. Conservation over the whole flow —
``deploys_requested == deploys_deployed + deploys_rejected +
deploys_withdrawn + queued_now`` — is an audited invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import Interrupt
from ..metrics.collector import MetricsCollector
from .admission import AdmissionController
from .detector import DetectorReading, OverloadDetector
from .ladder import LadderAction, LadderStep, build_ladder
from .spec import (
    ADMITTED,
    HEALTHY,
    OVERLOADED,
    QUEUED,
    REJECTED,
    SLO,
    AdmissionDecision,
    SLOConfig,
    attainment,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.videopipe import VideoPipe
    from ..pipeline.config import PipelineConfig
    from ..pipeline.pipeline import Pipeline

_EPS = 1e-9

#: Detector readings retained per enrolled pipeline.
HISTORY = 256


@dataclass
class Enrollment:
    """Per-pipeline controller state."""

    pipeline: "Pipeline"
    slo: SLO
    ladder: list[LadderStep]
    enrolled_at: float
    state: str = HEALTHY
    #: (rung index, step) for every currently-applied rung, in order.
    applied: list[tuple[int, LadderStep]] = field(default_factory=list)
    last_action_at: float | None = None
    healthy_since: float | None = None
    readings: list[DetectorReading] = field(default_factory=list)
    actions: list[LadderAction] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.applied)

    @property
    def paused(self) -> bool:
        return any(step.name == "pause" for _, step in self.applied)

    def applied_steps(self) -> list[str]:
        return [step.name for _, step in self.applied]


@dataclass
class QueuedDeploy:
    """A deploy admission parked until capacity returns."""

    config: "PipelineConfig"
    slo: SLO | None
    kwargs: dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.config.name


class SLOController:
    """Holds enrolled pipelines to their SLOs by actuating existing knobs."""

    def __init__(
        self,
        home: "VideoPipe",
        config: SLOConfig | None = None,
    ) -> None:
        self.home = home
        self.kernel = home.kernel
        self.config = config or SLOConfig()
        self.detector = OverloadDetector(home)
        self.admission = AdmissionController(home, self.config)
        #: Home-level counters (``deploys_*``); per-pipeline counters such
        #: as ``service_rejections`` live on each pipeline's collector.
        self.metrics = MetricsCollector("slo")
        self._enrolled: dict[str, Enrollment] = {}
        self._queue: list[QueuedDeploy] = []
        #: Every ladder action across all pipelines, in order.
        self.actions: list[LadderAction] = []
        self._running = False
        self._proc = None
        #: The home's auditor, or ``None`` (set by ``watch_slo``).
        self.auditor: Any = None

    # -- enrollment ----------------------------------------------------------
    def watch(self, pipeline: "Pipeline", slo: SLO | None = None) -> Enrollment | None:
        """Enroll *pipeline* under *slo*.

        Returns the enrollment, or ``None`` without an SLO — a pipeline
        with no stated objective is left alone. Idempotent by pipeline
        name."""
        existing = self._enrolled.get(pipeline.config.name)
        if existing is not None:
            return existing
        if slo is None:
            return None
        enrollment = Enrollment(
            pipeline=pipeline,
            slo=slo,
            ladder=build_ladder(self.home, pipeline, slo, self.config),
            enrolled_at=self.kernel.now,
        )
        self._enrolled[pipeline.config.name] = enrollment
        return enrollment

    def enrollment(self, name: str) -> Enrollment | None:
        return self._enrolled.get(name)

    @property
    def enrollments(self) -> list[Enrollment]:
        return list(self._enrolled.values())

    # -- control loop --------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._proc = self.kernel.process(self._loop(), name="slo-controller")

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("slo controller stopped")
        self._proc = None

    def _loop(self):
        try:
            while self._running:
                yield self.config.check_interval_s
                self._tick()
        except Interrupt:
            return

    def _tick(self) -> None:
        self._drain_queue()
        now = self.kernel.now
        for enrollment in list(self._enrolled.values()):
            if enrollment.pipeline.stopped:
                continue
            reading = self.detector.reading(
                enrollment.pipeline, enrollment.slo,
                enrolled_at=enrollment.enrolled_at,
                paused=enrollment.paused,
            )
            enrollment.state = reading.state
            enrollment.readings.append(reading)
            if len(enrollment.readings) > HISTORY:
                del enrollment.readings[:-HISTORY]
            if reading.state == OVERLOADED:
                enrollment.healthy_since = None
                if self._can_act(enrollment, now):
                    self._degrade(enrollment, now)
            elif reading.state == HEALTHY:
                if enrollment.healthy_since is None:
                    enrollment.healthy_since = now
                elif (
                    enrollment.applied
                    and now - enrollment.healthy_since
                    >= self.config.recovery_hold_s - _EPS
                    and self._can_act(enrollment, now)
                ):
                    self._restore(enrollment, now)
            else:  # strained: the hold band — no action, no recovery credit
                enrollment.healthy_since = None

    def _can_act(self, enrollment: Enrollment, now: float) -> bool:
        last = enrollment.last_action_at
        return last is None or now - last >= self.config.hysteresis_s - _EPS

    def _degrade(self, enrollment: Enrollment, now: float) -> None:
        start = enrollment.applied[-1][0] + 1 if enrollment.applied else 0
        for rung in range(start, len(enrollment.ladder)):
            step = enrollment.ladder[rung]
            detail = step.apply()
            if detail is None:
                continue  # rung not actionable right now; try the next
            depth_before = enrollment.depth
            enrollment.applied.append((rung, step))
            self._record(enrollment, LadderAction(
                at=now, pipeline=enrollment.pipeline.config.name,
                step=step.name, direction="degrade",
                depth_before=depth_before, depth_after=enrollment.depth,
                detail=detail,
            ))
            return
        # ladder exhausted: nothing left to shed

    def _restore(self, enrollment: Enrollment, now: float) -> None:
        rung, step = enrollment.applied[-1]
        detail = step.revert()
        depth_before = enrollment.depth
        enrollment.applied.pop()
        self._record(enrollment, LadderAction(
            at=now, pipeline=enrollment.pipeline.config.name,
            step=step.name, direction="restore",
            depth_before=depth_before, depth_after=enrollment.depth,
            detail=detail,
        ))

    def _record(self, enrollment: Enrollment, action: LadderAction) -> None:
        enrollment.last_action_at = action.at
        enrollment.actions.append(action)
        self.actions.append(action)
        self.metrics.increment(f"slo_{action.direction}s")
        if self.auditor is not None:
            self.auditor.on_slo_action(self, action)

    # -- admission flow ------------------------------------------------------
    def admit(
        self,
        config: "PipelineConfig",
        placement,
        queue: bool = False,
    ) -> AdmissionDecision:
        """Price one deploy request (the facade calls this from
        :meth:`~repro.core.videopipe.VideoPipe.deploy_pipeline`)."""
        self.metrics.increment("deploys_requested")
        decision = self.admission.decide(
            config, placement, on_reject=QUEUED if queue else REJECTED
        )
        if decision.action == ADMITTED:
            self.metrics.increment("deploys_admitted")
        elif decision.action == REJECTED:
            self.metrics.increment("deploys_rejected")
        if self.auditor is not None:
            self.auditor.on_admission(self, decision)
        return decision

    def enqueue(
        self,
        config: "PipelineConfig",
        slo: SLO | None,
        kwargs: dict[str, Any] | None = None,
    ) -> QueuedDeploy:
        item = QueuedDeploy(config=config, slo=slo, kwargs=dict(kwargs or {}))
        self._queue.append(item)
        self.metrics.increment("deploys_queued")
        return item

    def withdraw(self, name: str) -> bool:
        """Remove a queued deploy by pipeline name; ``True`` if found."""
        for index, item in enumerate(self._queue):
            if item.name == name:
                del self._queue[index]
                self.metrics.increment("deploys_withdrawn")
                return True
        return False

    def on_deployed(self) -> None:
        """An admitted deploy completed (facade bookkeeping)."""
        self.metrics.increment("deploys_deployed")

    def on_deploy_failed(self) -> None:
        """An admitted deploy failed in the deployer — counted as withdrawn
        so admission conservation still balances."""
        self.metrics.increment("deploys_withdrawn")

    @property
    def queued(self) -> list[QueuedDeploy]:
        return list(self._queue)

    def _drain_queue(self) -> None:
        while self._queue:
            item = self._queue[0]
            try:
                placement = self.home.plan(
                    item.config,
                    strategy=item.kwargs.get("strategy", "colocated"),
                    default_device=item.kwargs.get("default_device"),
                    host_device=item.kwargs.get("host_device"),
                )
            except Exception:
                return  # cannot even plan right now; retry next tick
            decision = self.admission.decide(
                item.config, placement, on_reject=QUEUED
            )
            if self.auditor is not None:
                self.auditor.on_admission(self, decision)
            if decision.action != ADMITTED:
                return  # head still does not fit; keep FIFO order
            self._queue.pop(0)
            self.metrics.increment("deploys_admitted")
            try:
                self.home.deploy_pipeline(
                    item.config, placement=placement, slo=item.slo,
                    admission="bypass", **{
                        k: v for k, v in item.kwargs.items()
                        if k not in ("strategy", "default_device", "host_device")
                    },
                )
            except Exception:
                self.metrics.increment("deploys_withdrawn")
                continue
            self.metrics.increment("deploys_deployed")

    # -- reporting -----------------------------------------------------------
    def attainment(
        self,
        name: str,
        start: float | None = None,
        end: float | None = None,
        bucket_s: float = 1.0,
    ) -> float:
        """SLO attainment for one enrolled pipeline over ``[start, end)``
        (defaults: enrollment time to now)."""
        enrollment = self._enrolled[name]
        return attainment(
            enrollment.slo,
            enrollment.pipeline.metrics.latency_events(),
            start=enrollment.enrolled_at if start is None else start,
            end=self.kernel.now if end is None else end,
            bucket_s=bucket_s,
        )

    def status(self) -> dict:
        """The facade's ``slo_status()`` payload."""
        pipelines = {}
        for name, enrollment in self._enrolled.items():
            pipelines[name] = {
                "state": enrollment.state,
                "slo": enrollment.slo.as_dict(),
                "depth": enrollment.depth,
                "applied": enrollment.applied_steps(),
                "actions": len(enrollment.actions),
                "attainment": self.attainment(name),
            }
        counters = self.metrics.counters()
        return {
            "pipelines": pipelines,
            "admission": {
                "requested": counters.get("deploys_requested", 0),
                "admitted": counters.get("deploys_admitted", 0),
                "rejected": counters.get("deploys_rejected", 0),
                "queued": counters.get("deploys_queued", 0),
                "withdrawn": counters.get("deploys_withdrawn", 0),
                "deployed": counters.get("deploys_deployed", 0),
                "queued_now": [item.name for item in self._queue],
                "threshold": self.config.admission_threshold,
            },
            "actions_total": len(self.actions),
        }
