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
*time*, whichever direction they go — the auditor's ladder invariants,
checked on each action the home's log receives, hold the controller to
that.

The controller also owns deploy-time admission
(:class:`~repro.slo.admission.AdmissionController`). Conservation over the
whole flow — ``deploys_requested == deploys_deployed + deploys_rejected +
deploys_withdrawn`` — is an audited invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..actions import Action
from ..metrics.collector import MetricsCollector
from .admission import AdmissionController
from .detector import OverloadDetector
from .ladder import LadderStep, build_ladder
from .spec import (
    ADMITTED,
    HEALTHY,
    OVERLOADED,
    SLO,
    STRAINED,
    AdmissionDecision,
    SLOConfig,
    bucket_complies,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.videopipe import VideoPipe
    from ..pipeline.config import PipelineConfig
    from ..pipeline.pipeline import Pipeline
    from ..sim.kernel import Ticker

_EPS = 1e-9

#: The width of the buckets the snapshot's attainment is scored over.
_BUCKET_S = 1.0

#: The admission counters, each one step of an admitted or refused deploy.
ADMISSION_COUNTERS = ("deploys_requested", "deploys_admitted",
                      "deploys_rejected", "deploys_withdrawn",
                      "deploys_deployed")


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
    #: Attainment so far: buckets scored, how many complied, and the first
    #: completion no scored bucket read (a closed bucket's verdict is final).
    buckets_scored: int = 0
    buckets_compliant: int = 0
    next_completion: int = 0

    @property
    def depth(self) -> int:
        return len(self.applied)

    @property
    def paused(self) -> bool:
        return any(step.name == "pause" for _, step in self.applied)

    def applied_steps(self) -> list[str]:
        return [step.name for _, step in self.applied]


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
        #: Where each ladder action is recorded: the home's log.
        self.actions: list[Action] = home.actions
        self._ticker: Ticker | None = None
        #: The home's auditor, told of each admission decision, or ``None``
        #: (set by ``VideoPipe._wire``).
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
        if self._ticker is None:
            self._ticker = self.kernel.every(
                self.config.check_interval_s, self._tick)

    def _tick(self) -> None:
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
            self._record(enrollment, now, "degrade", step, detail,
                         depth_before)
            return
        # ladder exhausted: nothing left to shed

    def _restore(self, enrollment: Enrollment, now: float) -> None:
        _, step = enrollment.applied[-1]
        detail = step.revert()
        depth_before = enrollment.depth
        enrollment.applied.pop()
        self._record(enrollment, now, "restore", step, detail, depth_before)

    def _record(self, enrollment: Enrollment, now: float, kind: str,
                step: LadderStep, detail: str, depth_before: int) -> None:
        action = Action(
            at=now, controller="slo", kind=kind,
            target=enrollment.pipeline.config.name, reason=detail,
            evidence={"step": step.name, "depth_before": depth_before,
                      "depth_after": enrollment.depth},
        )
        enrollment.last_action_at = now
        self.actions.append(action)

    def ladder_actions(self, pipeline: str | None = None) -> list[Action]:
        """This controller's actions, oldest first (for one pipeline when
        *pipeline* is given)."""
        return [a for a in self.actions if a.controller == "slo"
                and (pipeline is None or a.target == pipeline)]

    # -- admission flow ------------------------------------------------------
    def admit(self, config: "PipelineConfig", placement) -> AdmissionDecision:
        """Price one deploy request (the facade calls this from
        :meth:`~repro.core.videopipe.VideoPipe.deploy_pipeline`)."""
        self.metrics.increment("deploys_requested")
        decision = self.admission.decide(config, placement)
        if self.auditor is not None:
            self.auditor.check_admission(decision)
        if decision.action == ADMITTED:
            self.metrics.increment("deploys_admitted")
        else:
            self.metrics.increment("deploys_rejected")
        return decision

    def on_deployed(self) -> None:
        """An admitted deploy completed (facade bookkeeping)."""
        self.metrics.increment("deploys_deployed")

    def on_deploy_failed(self) -> None:
        """An admitted deploy failed in the deployer — counted as withdrawn
        so admission conservation still balances."""
        self.metrics.increment("deploys_withdrawn")

    # -- reporting -----------------------------------------------------------
    def _attainment(self, enrollment: Enrollment) -> float:
        """:func:`~repro.slo.spec.attainment` since enrollment, scoring each
        bucket once it closed: linear in the run, however often read."""
        start, slo = enrollment.enrolled_at, enrollment.slo
        buckets = int((self.kernel.now - start + _EPS) // _BUCKET_S)
        if buckets <= 0:
            return 1.0
        # no completion from now on lands before bucket `final`; the one
        # bucket the tolerance may count early is scored but not kept
        final = int((self.kernel.now - start) // _BUCKET_S)
        events = enrollment.pipeline.metrics.latency_events()
        index, compliant = (enrollment.next_completion,
                            enrollment.buckets_compliant)
        for bucket in range(enrollment.buckets_scored, buckets):
            latencies = []
            while index < len(events):
                at, latency = events[index]
                where = int((at - start) // _BUCKET_S)
                if where > bucket:
                    break
                if where == bucket:
                    latencies.append(latency)
                index += 1
            compliant += bucket_complies(slo, latencies, _BUCKET_S)
            if bucket < final:
                enrollment.buckets_scored = bucket + 1
                enrollment.buckets_compliant = compliant
                enrollment.next_completion = index
        return compliant / buckets

    def snapshot(self) -> dict:
        """The ``slo`` section of ``VideoPipe.snapshot()``: enrollment
        totals, the admission counters under their collector names, and
        per pipeline its state, ladder depth and attainment."""
        enrolled = self._enrolled
        counters = self.metrics.counters()
        return {
            "enrolled": len(enrolled),
            "overloaded": sum(e.state == OVERLOADED for e in enrolled.values()),
            "strained": sum(e.state == STRAINED for e in enrolled.values()),
            "ladder_depth": sum(e.depth for e in enrolled.values()),
            "actions": len(self.ladder_actions()),
            **{name: counters.get(name, 0) for name in ADMISSION_COUNTERS},
            "pipelines": {name: {
                "state": enrollment.state,
                "slo": enrollment.slo.as_dict(),
                "depth": enrollment.depth,
                "applied": enrollment.applied_steps(),
                "actions": len(self.ladder_actions(name)),
                "attainment": self._attainment(enrollment),
            } for name, enrollment in enrolled.items()},
        }
