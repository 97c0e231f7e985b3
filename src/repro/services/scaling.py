"""Service autoscaling — the paper's stated future work (§7), implemented.

"It also implies that we should scale the services at this point, which is
convenient in our design as the services are stateless" (§5.2.2). The
autoscaler periodically samples each watched host's queue, adds replicas
when requests are persistently waiting, and retires them again when a host
sits idle.

Decisions are made over **non-overlapping** sample windows: once a window
fills, it is consumed whole (evaluated then cleared). Re-evaluating a
mostly-overlapping window every tick — the pre-fix behaviour — lets a
single transient spike trigger a decision on several consecutive ticks and
burst replicas straight to ``max_replicas``. A cooldown
(:data:`COOLDOWN_S`) additionally spaces decisions for one host,
so each sustained-load episode produces one scaling event per cooldown
period; the invariant auditor flags any pair of events closer than that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..actions import Action
from ..sim.kernel import Kernel, Ticker
from .host import ServiceHost

#: Queue samples per decision. Windows never overlap (a decision consumes
#: its window), so decisions for one host are at least ``WINDOW *
#: check_interval_s`` apart.
WINDOW = 4
#: Minimum spacing between two scaling decisions for the same host, in
#: either direction, so a long backlog cannot stack scale-ups before earlier
#: replicas have had a chance to absorb load.
COOLDOWN_S = 1.0


@dataclass(frozen=True, slots=True)
class ScalingPolicy:
    """When and how far to scale a service host.

    Attributes:
        check_interval_s: seconds between queue samples.
        queue_threshold: average queued requests (over a window of
            :data:`WINDOW` samples) that triggers a scale-up.
        max_replicas: hard ceiling. A decision adds or removes one replica,
            and the scale-down path stops at one.
    """

    check_interval_s: float = 0.5
    queue_threshold: float = 0.5
    max_replicas: int = 4

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        if self.max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")


class AutoScaler:
    """Watches service hosts and sizes their replica pools to the load."""

    def __init__(
        self,
        kernel: Kernel,
        policy: ScalingPolicy | None = None,
        actions: list[Action] | None = None,
    ) -> None:
        self.kernel = kernel
        self.policy = policy or ScalingPolicy()
        self._hosts: list[ServiceHost] = []
        # keyed by host identity (the object itself), not id(host): an id
        # can be reused by a new host after the original is garbage
        # collected (e.g. replaced during an evacuation), silently crossing
        # the two hosts' sample streams
        self._samples: dict[ServiceHost, list[int]] = {}
        self._last_event_at: dict[ServiceHost, float] = {}
        #: Where each decision is recorded (the home's log when the home
        #: built this autoscaler).
        self.actions = [] if actions is None else actions
        self._ticker: Ticker | None = None

    def watch(self, host: ServiceHost) -> None:
        """Add a host to the watch list (before or after start).
        Idempotent: watching a host twice does not double-sample it."""
        if host in self._samples:
            return
        self._hosts.append(host)
        self._samples[host] = []

    def start(self) -> None:
        if self._ticker is None:
            self._ticker = self.kernel.every(
                self.policy.check_interval_s, self._tick)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    def _tick(self) -> None:
        for host in self._hosts:
            self._sample(host)

    def _sample(self, host: ServiceHost) -> None:
        samples = self._samples[host]
        samples.append(host.queue_length)
        if len(samples) < WINDOW:
            return
        # non-overlapping windows: the decision consumes its samples, so a
        # transient spike is evaluated once, not on every subsequent tick
        avg_queue = sum(samples) / len(samples)
        samples.clear()
        if (
            avg_queue >= self.policy.queue_threshold
            and host.replicas < self.policy.max_replicas
        ):
            self._scale(host, +1, avg_queue, "scale_up")
        elif avg_queue == 0 and host.busy_workers == 0 and host.replicas > 1:
            self._scale(host, -1, avg_queue, "scale_down")

    def request_scale(
        self, host: ServiceHost, step: int, reason: str = "slo"
    ) -> bool:
        """Externally request a replica change (e.g. from the SLO
        controller's degradation ladder), honouring the same policy bounds
        and cooldown as the sampling loop so the auditor's event-pacing
        invariant holds for every scaling event, whoever initiated it.

        Returns ``True`` when a replica was actually added or removed;
        ``False`` when the request was refused (cooldown still running, or
        the host already sits at the relevant bound)."""
        return self._scale(host, step, float(host.queue_length), reason)

    def _scale(
        self, host: ServiceHost, step: int, avg_queue: float, reason: str
    ) -> bool:
        last = self._last_event_at.get(host)
        if last is not None and self.kernel.now - last < COOLDOWN_S:
            return False
        before = host.replicas
        target = max(1, min(self.policy.max_replicas, before + step))
        if target == before:
            return False
        if target > before:
            host.add_replica(target - before)
        else:
            host.remove_replica(before - target)
        self._record(host, before, avg_queue, reason)
        return True

    def _record(
        self, host: ServiceHost, before: int, avg_queue: float, reason: str
    ) -> None:
        action = Action(
            at=self.kernel.now,
            controller="autoscaler",
            kind="scale_up" if host.replicas > before else "scale_down",
            target=f"{host.service_name}@{host.device.name}",
            reason=reason,
            evidence={"from_replicas": before, "to_replicas": host.replicas,
                      "avg_queue": avg_queue},
        )
        self._last_event_at[host] = self.kernel.now
        self.actions.append(action)
