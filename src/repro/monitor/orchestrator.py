"""The self-management loop: the monitor's state drives remediation.

§7 names three future components — automatic deployment, scheduling, and
monitoring. The :class:`Orchestrator` closes the loop between them: it
periodically evaluates *remedies* against the monitor's fresh state, so
modules stranded on a dead device are re-deployed without an operator in
the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..sim.kernel import Kernel
from .monitor import Monitor

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.pipeline import Pipeline
    from .failure_detector import FailureDetector


@dataclass(frozen=True, slots=True)
class Action:
    """One remediation the orchestrator executed."""

    at: float
    remedy: str
    description: str


@dataclass(slots=True)
class Remedy:
    """A named condition → action pair with a cooldown.

    ``condition`` reads the monitor and returns a description string when
    the remedy should fire (or None); ``action`` performs the change.
    """

    name: str
    condition: Callable[[Monitor], str | None]
    action: Callable[[], None]
    cooldown_s: float = 5.0
    max_firings: int | None = None
    _last_fired: float = -1e18
    _fired: int = 0

    def due(self, monitor: Monitor, now: float) -> str | None:
        if self.max_firings is not None and self._fired >= self.max_firings:
            return None
        if now - self._last_fired < self.cooldown_s:
            return None
        return self.condition(monitor)


class Orchestrator:
    """Evaluates remedies on a fixed period against the monitor."""

    def __init__(self, kernel: Kernel, monitor: Monitor,
                 period_s: float = 1.0) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.kernel = kernel
        self.monitor = monitor
        self.period_s = period_s
        self._remedies: list[Remedy] = []
        self.actions: list[Action] = []
        #: (time, remedy name, exception) for actions that raised; a broken
        #: remedy must not kill the control loop.
        self.action_failures: list[tuple[float, str, Exception]] = []
        self._running = False

    def add_remedy(self, remedy: Remedy) -> None:
        self._remedies.append(remedy)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.kernel.process(self._loop(), name="orchestrator")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            yield self.period_s
            if not self._running:
                break
            self.evaluate_once()

    def evaluate_once(self) -> list[Action]:
        """Check every remedy now; returns the actions taken."""
        fired = []
        now = self.kernel.now
        for remedy in self._remedies:
            description = remedy.due(self.monitor, now)
            if description is None:
                continue
            remedy._last_fired = now  # cooldown applies even to failures
            try:
                remedy.action()
            except Exception as exc:
                self.action_failures.append((now, remedy.name, exc))
                continue
            remedy._fired += 1
            action = Action(at=now, remedy=remedy.name, description=description)
            self.actions.append(action)
            fired.append(action)
        return fired


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

    def condition(monitor: Monitor) -> str | None:
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
        name=f"evacuate:{pipeline.name}",
        condition=condition,
        action=action,
        cooldown_s=cooldown_s,
    )
