"""Admission control: predicted-cost gating of new deploys.

Reuses the :class:`~repro.pipeline.optimizer.CostModel`'s utilization view
(offered busy-seconds per second per device, normalized by cores): the home
is already carrying its deployed pipelines' load, and a candidate deploy is
admitted only when the *combined* prediction stays under the configured
per-device threshold. A deploy that would push any device past it gets a
typed :data:`~repro.slo.spec.REJECTED`
:class:`~repro.slo.spec.AdmissionDecision` instead of degrading the
pipelines that were promised an SLO.

The check **fails open**: when the cost model cannot price a candidate
(a service hosted nowhere yet, a device mid-crash), the deploy is admitted
with the reason recorded — admission control protects SLOs from load, not
from configuration errors, which the deployer reports on its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..pipeline.optimizer import CostModel, OptimizerConfig
from .spec import ADMITTED, REJECTED, AdmissionDecision, SLOConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..core.videopipe import VideoPipe
    from ..pipeline.config import PipelineConfig
    from ..pipeline.placement import PlacementPlan

#: Fallback offered load when a pipeline's source declares no fps.
DEFAULT_FPS = 10.0


def pipeline_fps(config: "PipelineConfig") -> float:
    """The offered load a pipeline's source declares (its ``fps`` param)."""
    try:
        fps = config.module(config.source_module).params.get("fps")
    except Exception:
        fps = None
    if not fps or fps <= 0:
        return DEFAULT_FPS
    return float(fps)


class AdmissionController:
    """Prices candidate deploys against the home's current load."""

    def __init__(self, home: "VideoPipe", config: SLOConfig | None = None) -> None:
        self.home = home
        self.config = config or SLOConfig()
        #: Every decision ever made, in order (the audit trail).
        self.decisions: list[AdmissionDecision] = []

    # -- prediction ----------------------------------------------------------
    def _pipeline_load(
        self, config: "PipelineConfig", assignments: dict[str, str]
    ) -> dict[str, float]:
        model = CostModel(
            config, self.home.devices, self.home.registry,
            self.home.topology,
            optimizer=OptimizerConfig(fps=pipeline_fps(config)),
        )
        return model.utilization(assignments)

    def predicted_utilization(
        self,
        candidate: "tuple[PipelineConfig, PlacementPlan] | None" = None,
    ) -> dict[str, float]:
        """Per-device utilization with every running pipeline — plus the
        *candidate* ``(config, placement)``, when given — deployed."""
        totals: dict[str, float] = {name: 0.0 for name in self.home.devices}
        loads = [
            (p.config, p.placement.assignments)
            for p in self.home.pipelines
            if not p.stopped
        ]
        if candidate is not None:
            loads.append((candidate[0], candidate[1].assignments))
        for config, assignments in loads:
            for device, load in self._pipeline_load(config, assignments).items():
                totals[device] = totals.get(device, 0.0) + load
        return totals

    # -- the decision --------------------------------------------------------
    def decide(
        self,
        config: "PipelineConfig",
        placement: "PlacementPlan",
    ) -> AdmissionDecision:
        """Price admitting *config* at *placement* and record the verdict."""
        now = self.home.kernel.now
        threshold = self.config.admission_threshold
        try:
            predicted = self.predicted_utilization((config, placement))
        except Exception as exc:  # fail open — see module docstring
            decision = AdmissionDecision(
                at=now, pipeline=config.name, action=ADMITTED,
                reason=f"cost model unavailable ({exc}); admitted unpriced",
                worst_device="", worst_utilization=0.0, threshold=threshold,
            )
            self.decisions.append(decision)
            return decision
        worst_device, worst = max(
            predicted.items(), key=lambda item: (item[1], item[0])
        )
        if worst <= threshold + 1e-9:
            action, reason = ADMITTED, (
                f"predicted utilization {worst:.2f} on {worst_device!r}"
                f" within threshold {threshold:.2f}"
            )
        else:
            action, reason = REJECTED, (
                f"predicted utilization {worst:.2f} on {worst_device!r}"
                f" exceeds threshold {threshold:.2f}"
            )
        decision = AdmissionDecision(
            at=now, pipeline=config.name, action=action, reason=reason,
            worst_device=worst_device, worst_utilization=worst,
            threshold=threshold, predicted=predicted,
        )
        self.decisions.append(decision)
        return decision
