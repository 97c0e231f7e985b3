"""Evacuation: the recovery half of the §7 self-management loop.

§7 names three future components — automatic deployment, scheduling, and
monitoring. Evacuation closes the loop between them: once per
:data:`PERIOD_S`, the modules of each self-healed pipeline that sit on a
device the failure detector declared dead are re-deployed onto a live one,
without an operator in the loop (``VideoPipe.enable_self_healing``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..actions import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..core.videopipe import VideoPipe
    from ..pipeline.pipeline import Pipeline

#: Seconds between two evacuation ticks.
PERIOD_S = 1.0


def evacuate(home: "VideoPipe", pipelines: list["Pipeline"]) -> None:
    """One evacuation tick over *pipelines*, in order.

    Every module stranded on a device the home's failure detector declared
    dead moves to the best device of :meth:`VideoPipe.live_devices` (fastest
    CPU, ties by name; container-capable when the module declares services)
    and counts in its pipeline's ``recovery_migrations``. A module with
    nowhere to go, or whose migration raises, stays for the next tick; the
    others still move. Each pipeline that had a stranded module gets one
    ``evacuate`` action naming the first dead device that hosted some.
    """
    dead = home.detector.dead_devices()
    live = home.live_devices().values()
    for pipeline in pipelines:
        stranded = [(device, module_name) for device in dead
                    for module_name in pipeline.module_names()
                    if pipeline.device_of(module_name) == device]
        if not stranded:
            continue
        for _device, module_name in stranded:
            containers = bool(pipeline.config.module(module_name).services)
            targets = [d for d in live
                       if d.supports_containers or not containers]
            if not targets:
                continue
            target = min(targets, key=lambda d: (d.spec.cpu_factor, d.name))
            try:
                home.migrate_module(pipeline, module_name, target.name)
            except Exception:
                continue
            pipeline.metrics.increment("recovery_migrations")
        first = stranded[0][0]
        hosted = ", ".join(m for device, m in stranded if device == first)
        home.actions.append(Action(
            home.now, "orchestrator", "evacuate", pipeline.name,
            f"dead {first!r} still hosts {hosted}"))
