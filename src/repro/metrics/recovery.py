"""Recovery accounting: one place that answers "how did the home cope?".

Resilience counters live where the mechanisms live — detections and MTTR
on the failure detector, faults on the injector, migrations on pipeline
metrics, retries and circuit trips on each :class:`~repro.net.rpc.RpcClient`
and failovers on each remote stub. The :class:`RecoveryTracker` aggregates
the first three for whichever detector, injector and pipelines a scenario
wires in and renders a single report dict, so chaos tests and the recovery
benchmark read one structure instead of spelunking three layers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import ChaosInjector
    from ..monitor.failure_detector import FailureDetector
    from ..pipeline.pipeline import Pipeline


class RecoveryTracker:
    """Aggregates resilience counters from across the stack."""

    def __init__(self) -> None:
        self._detector: "FailureDetector | None" = None
        self._injector: "ChaosInjector | None" = None
        self._pipelines: list["Pipeline"] = []

    # -- wiring ----------------------------------------------------------------
    def watch_detector(self, detector: "FailureDetector") -> "RecoveryTracker":
        self._detector = detector
        return self

    def watch_injector(self, injector: "ChaosInjector") -> "RecoveryTracker":
        self._injector = injector
        return self

    def watch_pipeline(self, pipeline: "Pipeline") -> "RecoveryTracker":
        self._pipelines.append(pipeline)
        return self

    # -- report ----------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """Everything a post-mortem wants, in one flat dict."""
        out: dict[str, Any] = {
            "faults_injected": 0,
            "detections": 0,
            "recoveries": 0,
            "mttr_mean_s": 0.0,
            "mttr_max_s": 0.0,
            "recovery_migrations": 0,
        }
        if self._injector is not None:
            out["faults_injected"] = self._injector.faults_injected
        if self._detector is not None:
            out["detections"] = self._detector.detections
            out["recoveries"] = self._detector.recoveries
            out["mttr_mean_s"] = self._detector.mttr_mean()
            out["mttr_max_s"] = self._detector.mttr_max()
        out["recovery_migrations"] = sum(
            p.metrics.counter("recovery_migrations") for p in self._pipelines
        )
        return out
