"""SLO declarations and attainment scoring.

The paper's pipelines get whatever latency their placement happens to give
them; this package inverts the contract (ROADMAP item 1). An :class:`SLO`
states what a pipeline's owner actually cares about — tail end-to-end
latency and a minimum delivered frame rate — and :func:`attainment` scores
a run against it: the fraction of one-second buckets in which **both**
targets held. Everything else in :mod:`repro.slo` (detection, the
degradation ladder, admission control) exists to keep that number high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigError

#: System states the :class:`~repro.slo.detector.OverloadDetector` reports.
HEALTHY = "healthy"
STRAINED = "strained"
OVERLOADED = "overloaded"

#: Admission decision outcomes.
ADMITTED = "admitted"
REJECTED = "rejected"


@dataclass(frozen=True, slots=True)
class SLO:
    """A per-pipeline service-level objective.

    Attributes:
        p99_latency_s: target tail (p99) source-to-completion latency.
        min_fps: minimum delivered (completed) frames per second. The SLO
            controller's fps rung never degrades the source below this.
        window_s: trailing window the detector evaluates live signals over.
    """

    p99_latency_s: float = 0.25
    min_fps: float = 1.0
    window_s: float = 2.0

    def __post_init__(self) -> None:
        if self.p99_latency_s <= 0:
            raise ConfigError("p99_latency_s must be positive")
        if self.min_fps <= 0:
            raise ConfigError("min_fps must be positive")
        if self.window_s <= 0:
            raise ConfigError("window_s must be positive")

    def as_dict(self) -> dict:
        return {
            "p99_latency_s": self.p99_latency_s,
            "min_fps": self.min_fps,
            "window_s": self.window_s,
        }


@dataclass(frozen=True, slots=True)
class SLOConfig:
    """Knobs for the SLO controller and the admission check.

    Attributes:
        check_interval_s: controller loop period.
        hysteresis_s: minimum spacing between two ladder actions (either
            direction) on one pipeline — the anti-flapping guard the
            auditor enforces on every recorded action.
        recovery_hold_s: how long a pipeline must hold ``healthy`` before
            one ladder step is restored.
        use_optimizer: include a placement-replan rung (needs
            ``enable_optimizer``).
        admission_threshold: maximum predicted per-device utilization
            (busy-seconds per second per core) a deploy may push the home
            to before admission control rejects or queues it.
    """

    check_interval_s: float = 0.5
    hysteresis_s: float = 1.5
    recovery_hold_s: float = 3.0
    use_optimizer: bool = True
    admission_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0:
            raise ConfigError("check_interval_s must be positive")
        if self.hysteresis_s < 0 or self.recovery_hold_s < 0:
            raise ConfigError("hysteresis and recovery hold must be >= 0")
        if self.admission_threshold <= 0:
            raise ConfigError("admission_threshold must be positive")


@dataclass(frozen=True)
class AdmissionDecision:
    """The typed outcome of one admission check at deploy time.

    ``action`` is :data:`ADMITTED` or :data:`REJECTED`; ``predicted``
    maps device name to the utilization the home would run at with the
    candidate deployed.
    """

    at: float
    pipeline: str
    action: str
    reason: str
    worst_device: str
    worst_utilization: float
    threshold: float
    predicted: dict[str, float] = field(default_factory=dict)

    @property
    def admitted(self) -> bool:
        return self.action == ADMITTED

    def as_dict(self) -> dict:
        return {
            "at": self.at,
            "pipeline": self.pipeline,
            "action": self.action,
            "reason": self.reason,
            "worst_device": self.worst_device,
            "worst_utilization": self.worst_utilization,
            "threshold": self.threshold,
            "predicted": dict(self.predicted),
        }


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (ceil convention); 0.0 on an empty list."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ConfigError("q must be in [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def attainment(
    slo: SLO,
    latency_events: list[tuple[float, float]],
    start: float,
    end: float,
    bucket_s: float = 1.0,
) -> float:
    """Fraction of *bucket_s* buckets in ``[start, end)`` meeting the SLO.

    A bucket complies when **both** hold: at least ``min_fps * bucket_s``
    frames completed in it, and the p99 of their latencies is at or under
    ``p99_latency_s``. A bucket with no completions at all fails (a stalled
    pipeline is not meeting anything). Only whole buckets count; 1.0 when
    the range holds none.
    """
    if bucket_s <= 0:
        raise ConfigError("bucket_s must be positive")
    buckets = int((end - start + 1e-9) // bucket_s)
    if buckets <= 0:
        return 1.0
    per_bucket: list[list[float]] = [[] for _ in range(buckets)]
    for at, latency in latency_events:
        index = int((at - start) // bucket_s)
        if 0 <= index < buckets:
            per_bucket[index].append(latency)
    compliant = sum(bucket_complies(slo, latencies, bucket_s)
                    for latencies in per_bucket)
    return compliant / buckets


def bucket_complies(slo: SLO, latencies: list[float], bucket_s: float) -> bool:
    """One bucket's verdict: enough completions, and their p99 in bound."""
    if len(latencies) < slo.min_fps * bucket_s - 1e-9:
        return False
    return quantile(latencies, 0.99) <= slo.p99_latency_s + 1e-9
