"""Canary policy: when is a new module version healthy enough to promote?

Llama-style reconfiguration judgement (PAPERS.md): a version swap is not
applied blind — the candidate runs beside the incumbent on live mirrored
traffic and is scored against the latency/error/backlog signals the
runtime already collects. The policy holds the evidence floor and the
deadline; the health thresholds and the decision loop live in
:class:`~repro.liveops.upgrade.LiveOpsManager`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(slots=True)
class CanaryPolicy:
    """Knobs for one hot upgrade's canary phase.

    Attributes:
        mirror_fraction: fraction of the incumbent's DATA events copied to
            the candidate (deterministic accumulator, no randomness;
            ``1.0`` mirrors everything).
        min_mirrored: mirrored frames the candidate must *complete* before
            a promote decision may be taken (evidence floor).
        decision_timeout_s: hard deadline on the canary phase; if no
            promote decision was reached by then the upgrade rolls back
            (insufficient or unhealthy evidence both fail safe).
        auto: drive the decision loop from the kernel. ``False`` leaves
            the upgrade mirroring until :meth:`~repro.liveops.upgrade
            .LiveOpsManager.promote` / ``rollback`` is called explicitly.
    """

    mirror_fraction: float = 1.0
    min_mirrored: int = 8
    decision_timeout_s: float = 10.0
    auto: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.mirror_fraction <= 1.0:
            raise ConfigError("mirror_fraction must be in (0, 1]")
        if self.min_mirrored < 1:
            raise ConfigError("min_mirrored must be >= 1")
        if self.decision_timeout_s <= 0:
            raise ConfigError("decision_timeout_s must be positive")
