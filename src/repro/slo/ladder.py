"""The reversible degradation ladder.

When a pipeline is overloaded the controller applies exactly one rung per
action, in a fixed order chosen so fidelity is spent last:

1. **scale up** — add a service replica through the
   :class:`~repro.services.scaling.AutoScaler` (no fidelity cost);
2. **replan** — ask the :class:`~repro.pipeline.optimizer.OnlineOptimizer`
   for a better placement (no fidelity cost);
3. **resolution** — shrink capture resolution (smaller JPEG wire size and
   encode/decode compute; content fidelity drops);
4. **service tier** — switch the heavy services to a cheaper compute tier
   (model fidelity drops);
5. **fps** — lower the source rate, never below the SLO's ``min_fps``;
6. **pause** — stop admitting frames entirely: the explicit, reversible
   form of "drop the pipeline", taken only when everything above failed.

Every rung records what it changed and restores exactly that on revert, so
recovery — steps popped in reverse order as load clears — returns the
pipeline to full fidelity: original resolution, original fps, original
service tier, original replica count.

A rung that is not actionable right now (no camera to shrink, autoscaler
refuses under cooldown, optimizer sees nothing better) returns ``None``
from :meth:`LadderStep.apply` and the controller moves past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .spec import SLO, SLOConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..core.videopipe import VideoPipe
    from ..pipeline.pipeline import Pipeline

#: Per-rung capture resolution multiplier; the ladder has two such rungs.
RESOLUTION_FACTOR = 0.7
#: The services whose compute tier the ladder may degrade, and the cost
#: multiplier of the cheaper tier.
TIER_SERVICES = ("pose_detector",)
TIER_FACTOR = 0.6
#: Per-rung source fps multiplier; the ladder has two such rungs.
FPS_FACTOR = 0.7


@dataclass(frozen=True, slots=True)
class LadderAction:
    """Record of one controller actuation (a degrade or a restore)."""

    at: float
    pipeline: str
    step: str
    direction: str  # "degrade" | "restore"
    depth_before: int
    depth_after: int
    detail: str


class LadderStep:
    """One reversible knob. ``apply`` returns a human-readable detail of
    what changed, or ``None`` when the rung is not actionable right now;
    ``revert`` undoes exactly what the matching ``apply`` did."""

    name = "step"

    def apply(self) -> str | None:  # pragma: no cover - interface
        raise NotImplementedError

    def revert(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


class ScaleUpStep(LadderStep):
    """Add one replica to the most backlogged service the pipeline calls."""

    name = "scale_up"

    def __init__(self, home: "VideoPipe", services: list[str]) -> None:
        self.home = home
        self.services = sorted(services)
        self._host = None

    def _pick_host(self):
        candidates = []
        for service in self.services:
            for host in self.home.registry.hosts_of(service):
                if host.up and host.device.up:
                    candidates.append(host)
        if not candidates:
            return None
        # the deepest backlog first; device name breaks ties so the pick is
        # deterministic
        return max(
            candidates,
            key=lambda h: (h.queue_length + h.busy_workers, h.device.name),
        )

    def apply(self) -> str | None:
        scaler = self.home.autoscaler
        if scaler is None:
            return None
        host = self._pick_host()
        if host is None:
            return None
        if not scaler.request_scale(host, +1, reason="slo_degrade"):
            return None
        self._host = host
        return (
            f"replicas {host.service_name}@{host.device.name}"
            f" -> {host.replicas}"
        )

    def revert(self) -> str:
        host, self._host = self._host, None
        scaler = self.home.autoscaler
        if host is None or scaler is None:
            return "no replica to retire"
        if host.up and scaler.request_scale(host, -1, reason="slo_restore"):
            return (
                f"replicas {host.service_name}@{host.device.name}"
                f" -> {host.replicas}"
            )
        return f"replica retire refused for {host.service_name}"


class ReplanStep(LadderStep):
    """Ask the online optimizer to reconsider this pipeline's placement."""

    name = "replan"

    def __init__(self, home: "VideoPipe", pipeline: "Pipeline") -> None:
        self.home = home
        self.pipeline = pipeline

    def apply(self) -> str | None:
        optimizer = self.home.optimizer
        if optimizer is None:
            return None
        event = optimizer.replan_now(self.pipeline)
        if event is None:
            return None
        moves = ", ".join(
            f"{name}:{src}->{dst}"
            for name, (src, dst) in sorted(event.moves.items())
        )
        return f"replanned ({moves})"

    def revert(self) -> str:
        # placement has no 'previous' to restore — load changed, so let the
        # optimizer re-place for the recovered regime instead
        optimizer = self.home.optimizer
        if optimizer is not None:
            event = optimizer.replan_now(self.pipeline)
            if event is not None:
                return "replanned for recovered load"
        return "placement kept"


class ResolutionStep(LadderStep):
    """Shrink the capture resolution by *factor*."""

    name = "resolution"

    def __init__(self, camera, factor: float) -> None:
        self.camera = camera
        self.factor = factor
        self._prev: tuple[int, int] | None = None

    def apply(self) -> str | None:
        camera = self.camera
        if camera is None or not hasattr(camera, "set_resolution"):
            return None
        width, height = camera.width, camera.height
        new_w = max(16, round(width * self.factor))
        new_h = max(16, round(height * self.factor))
        if (new_w, new_h) == (width, height):
            return None
        self._prev = (width, height)
        camera.set_resolution(new_w, new_h)
        return f"resolution {width}x{height} -> {new_w}x{new_h}"

    def revert(self) -> str:
        prev, self._prev = self._prev, None
        if prev is None or self.camera is None:
            return "resolution kept"
        self.camera.set_resolution(*prev)
        return f"resolution -> {prev[0]}x{prev[1]}"


class TierStep(LadderStep):
    """Move the heavy services to a cheaper compute tier (*factor* on
    ``reference_cost_s``) — a stand-in for swapping in a smaller model,
    which also cheapens every *other* pipeline's calls to the service."""

    name = "service_tier"

    def __init__(self, home: "VideoPipe", services: tuple[str, ...],
                 factor: float) -> None:
        self.home = home
        self.services = services
        self.factor = factor
        self._originals: list[tuple[object, float]] = []

    def apply(self) -> str | None:
        seen: set[int] = set()
        changed: list[str] = []
        for service_name in self.services:
            for host in self.home.registry.hosts_of(service_name):
                service = host.service
                if id(service) in seen:
                    continue
                seen.add(id(service))
                self._originals.append((service, service.reference_cost_s))
                service.reference_cost_s *= self.factor
                changed.append(
                    f"{service_name}@{host.device.name}"
                    f"={service.reference_cost_s * 1e3:.1f}ms"
                )
        if not changed:
            return None
        return "tier down: " + ", ".join(changed)

    def revert(self) -> str:
        originals, self._originals = self._originals, []
        if not originals:
            return "tier kept"
        for service, cost in originals:
            service.reference_cost_s = cost
        return f"tier restored for {len(originals)} service instance(s)"


class FpsStep(LadderStep):
    """Lower the source rate by *factor*, floored at ``min_fps``."""

    name = "fps"

    def __init__(self, source, factor: float, floor_fps: float) -> None:
        self.source = source
        self.factor = factor
        self.floor_fps = floor_fps
        self._prev: float | None = None

    def apply(self) -> str | None:
        source = self.source
        if source is None:
            return None
        current = source.fps
        new = max(self.floor_fps, current * self.factor)
        if new >= current - 1e-9:
            return None  # already at (or under) the SLO floor
        self._prev = current
        source.set_fps(new)
        return f"fps {current:.1f} -> {new:.1f}"

    def revert(self) -> str:
        prev, self._prev = self._prev, None
        if prev is None or self.source is None:
            return "fps kept"
        self.source.set_fps(prev)
        return f"fps -> {prev:.1f}"


class PauseStep(LadderStep):
    """Stop admitting frames — reversible 'drop the pipeline'."""

    name = "pause"

    def __init__(self, source) -> None:
        self.source = source

    def apply(self) -> str | None:
        source = self.source
        if source is None or source.paused:
            return None
        source.set_paused(True)
        return "paused"

    def revert(self) -> str:
        if self.source is not None:
            self.source.set_paused(False)
        return "resumed"


def find_source(pipeline: "Pipeline"):
    """The pipeline's :class:`~repro.frames.video_source.VideoSource`, or
    ``None`` for pipelines without a paced source module."""
    for name in pipeline.config.module_names():
        try:
            instance = pipeline.module_instance(name)
        except Exception:
            continue
        source = getattr(instance, "source", None)
        if source is not None and hasattr(source, "set_fps"):
            return source
    return None


def build_ladder(
    home: "VideoPipe",
    pipeline: "Pipeline",
    slo: SLO,
    config: SLOConfig,
) -> list[LadderStep]:
    """Construct the rungs applicable to *pipeline*, in degradation order:
    one scale-up, the replan (when ``config.use_optimizer``), two
    resolution rungs, the service tier (when the pipeline calls a
    :data:`TIER_SERVICES` service), two fps rungs, pause."""
    source = find_source(pipeline)
    camera = getattr(source, "camera", None) if source is not None else None
    services: set[str] = set()
    for name in pipeline.config.module_names():
        services.update(pipeline.config.module(name).services)
    steps: list[LadderStep] = [ScaleUpStep(home, sorted(services))]
    if config.use_optimizer:
        steps.append(ReplanStep(home, pipeline))
    steps += [ResolutionStep(camera, RESOLUTION_FACTOR) for _ in range(2)]
    tiered = tuple(s for s in TIER_SERVICES if s in services)
    if tiered:
        steps.append(TierStep(home, tiered, TIER_FACTOR))
    steps += [FpsStep(source, FPS_FACTOR, slo.min_fps) for _ in range(2)]
    steps.append(PauseStep(source))
    return steps
