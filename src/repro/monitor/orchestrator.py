"""The self-management loop: detected state drives remediation.

§7 names three future components — automatic deployment, scheduling, and
monitoring. The :class:`Orchestrator` closes the loop between them: it
periodically evaluates *remedies*, so modules stranded on a dead device are
re-deployed without an operator in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..actions import Action
from ..sim.kernel import Kernel, Ticker

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.pipeline import Pipeline
    from .failure_detector import FailureDetector

#: Seconds between two evaluations of the remedies.
PERIOD_S = 1.0


@dataclass(slots=True)
class Remedy:
    """A condition → action pair with a cooldown.

    ``condition`` returns a description string when the remedy should fire
    (or None); ``action`` performs the change. ``kind`` and ``target`` name
    what it does and to what in the action log.
    """

    kind: str
    target: str
    condition: Callable[[], str | None]
    action: Callable[[], None]
    cooldown_s: float = 5.0
    _last_fired: float = -1e18


class Orchestrator:
    """Evaluates remedies once per :data:`PERIOD_S`."""

    def __init__(self, kernel: Kernel,
                 actions: list[Action] | None = None) -> None:
        self.kernel = kernel
        self._remedies: list[Remedy] = []
        #: Where each remedy that ran is recorded.
        self.actions = [] if actions is None else actions
        #: (time, remedy, exception) for actions that raised; a broken
        #: remedy must not kill the control loop.
        self.action_failures: list[tuple[float, Remedy, Exception]] = []
        self._ticker: Ticker | None = None

    def add_remedy(self, remedy: Remedy) -> None:
        self._remedies.append(remedy)

    def start(self) -> None:
        if self._ticker is None:
            self._ticker = self.kernel.every(PERIOD_S, self.evaluate_once)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    def evaluate_once(self) -> None:
        """Check every remedy now, running each that is due."""
        now = self.kernel.now
        for remedy in self._remedies:
            if now - remedy._last_fired < remedy.cooldown_s:
                continue
            description = remedy.condition()
            if description is None:
                continue
            remedy._last_fired = now  # cooldown applies even to failures
            try:
                remedy.action()
            except Exception as exc:
                self.action_failures.append((now, remedy, exc))
                continue
            self.actions.append(Action(
                now, "orchestrator", remedy.kind, remedy.target, description))


# -- the ready-made remedy -----------------------------------------------------

def evacuate_dead_device_remedy(
    home,
    pipeline: "Pipeline",
    detector: "FailureDetector",
    cooldown_s: float = 1.0,
) -> Remedy:
    """Re-deploy modules off devices the failure detector declared dead.

    The recovery half of the §7 loop: the detector notices the outage, this
    remedy moves every stranded module of *pipeline* to the best surviving
    device (fastest CPU, ties by name; container-capable when any stranded
    module declares services). Per-module failures are isolated so one bad
    migration doesn't strand the rest.
    """

    def stranded_on(device: str) -> list[str]:
        return [
            m for m in pipeline.module_names()
            if pipeline.device_of(m) == device
        ]

    def needs_containers(module_name: str) -> bool:
        return bool(pipeline.config.module(module_name).services)

    def condition() -> str | None:
        for device in detector.dead_devices():
            stranded = stranded_on(device)
            if stranded:
                return f"dead {device!r} still hosts {', '.join(stranded)}"
        return None

    def pick_target(avoid: set[str], containers: bool) -> str | None:
        candidates = [
            d for d in home.devices.values()
            if d.up and d.name not in avoid and not detector.is_dead(d.name)
            and (not containers or d.supports_containers)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda d: (d.spec.cpu_factor, d.name)).name

    def action() -> None:
        for device in detector.dead_devices():
            for module_name in stranded_on(device):
                target = pick_target({device}, needs_containers(module_name))
                if target is None:
                    continue  # nowhere to go; retry next evaluation
                try:
                    home.migrate_module(pipeline, module_name, target)
                except Exception:
                    continue  # isolate per-module failures
                pipeline.metrics.increment("recovery_migrations")

    return Remedy(
        kind="evacuate",
        target=pipeline.name,
        condition=condition,
        action=action,
        cooldown_s=cooldown_s,
    )
