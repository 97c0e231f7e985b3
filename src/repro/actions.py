"""One record of what a controller did.

Every periodic controller — the autoscaler, the SLO ladder, the online
optimizer, the failure detector, the evacuation tick (``orchestrator``) and
the live-ops canary judge — records each decision it carries out as one
:class:`Action`. A home keeps them in one :class:`ActionLog`,
``VideoPipe.actions``, which it hands to each controller it builds; a
controller built on its own keeps a list of its own. Readers filter by
``controller``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class Action:
    """One decision a controller carried out.

    Attributes:
        at: simulated time of the decision.
        controller: who decided — ``autoscaler``, ``slo``, ``optimizer``,
            ``detector``, ``orchestrator`` or ``liveops``.
        kind: what it did — ``scale_up``/``scale_down``,
            ``degrade``/``restore``, ``replan``, ``down``/``up``, the
            ``evacuate``, ``promoted``/``rolled_back``.
        target: what it acted on — a ``service@device`` host, a pipeline,
            a device, or a ``pipeline/module``.
        reason: why, in words (the autoscaler names the rule or the
            requester).
        evidence: the values behind the decision, by name.
    """

    at: float
    controller: str
    kind: str
    target: str
    reason: str
    evidence: dict[str, Any] = field(default_factory=dict)


class ActionLog(list):
    """The home's action log: a list that tells its one observer (the
    auditor's action mirror, set by ``VideoPipe._wire``, or ``None``) of
    each action as it is appended."""

    __slots__ = ("observer",)

    def __init__(self) -> None:
        super().__init__()
        self.observer: Any = None

    def append(self, action: Action) -> None:
        super().append(action)
        if self.observer is not None:
            self.observer.appended(action)
