"""Seeded random generators for property-based pipeline tests.

Plain ``random.Random`` only (no new deps): every generator takes the RNG
as its first argument, so a fixed seed reproduces the exact sequence of
pipelines/homes — the fuzz suite asserts that determinism explicitly.

Two flavours of pipeline come out of here:

* :func:`random_pipeline_config` — arbitrary DAGs (fan-out, random service
  mixes, occasional pins to unknown devices or services hosted nowhere).
  These exercise the parser round-trip and the *totality* property of the
  placement strategies: a total assignment or a typed ``PlacementError``,
  never a stray ``KeyError``.
* :func:`random_deployable_config` — linear camera → stages → sink chains
  built from the fleet workload modules, valid by construction against the
  home :func:`random_home` builds. These actually deploy and run, and must
  pass ``check_invariants()``.
"""

from __future__ import annotations

import random

from repro.core import VideoPipe
from repro.fleet.workload import install_home_services
from repro.pipeline.config import ModuleConfig, PipelineConfig
from repro.services.base import FunctionService

#: Service names arbitrary DAGs may declare; ``svc_ghost`` is never hosted
#: by :func:`random_home`, so declaring it must yield a PlacementError.
SERVICE_POOL = ("fleet_detector", "fleet_classifier", "fleet_alerter",
                "svc_ghost")

#: Devices arbitrary DAGs may pin to; "nas" never exists in a random home.
DEVICE_POOL = ("phone", "hub", "tv", "nas")

#: Includes for arbitrary (non-deployed) DAGs; placement never resolves
#: them, so they only need to be plausible strings.
INCLUDE_POOL = ("./VideoStreamingModule.js", "./FleetStageModule.js",
                "./FleetSinkModule.js")


def random_pipeline_config(
    rng: random.Random, index: int = 0, max_modules: int = 6
) -> PipelineConfig:
    """An arbitrary acyclic pipeline: random fan-out, service mixes, and
    sometimes-invalid pins. Edges only go from lower to higher module
    index (acyclic by construction) and every non-source module has at
    least one predecessor (reachable by construction)."""
    count = rng.randint(2, max_modules)
    next_modules: dict[int, list[int]] = {i: [] for i in range(count)}
    for target in range(1, count):
        next_modules[rng.randrange(target)].append(target)
        for source in range(target):
            if target not in next_modules[source] and rng.random() < 0.15:
                next_modules[source].append(target)
    modules = []
    for i in range(count):
        services: list[str] = []
        if i > 0 and rng.random() < 0.6:
            services = sorted(
                rng.sample(SERVICE_POOL, rng.randint(1, 2))
            )
        device = None
        if rng.random() < 0.25:
            device = rng.choice(DEVICE_POOL)
        modules.append(ModuleConfig(
            name=f"m{i}",
            include=rng.choice(INCLUDE_POOL),
            services=services,
            next_modules=[f"m{t}" for t in next_modules[i]],
            device=device,
            params={"knob": rng.randint(0, 9)} if rng.random() < 0.3 else {},
        ))
    return PipelineConfig(name=f"fuzz{index}", modules=modules)


def random_deployable_config(
    rng: random.Random,
    camera_device: str,
    index: int = 0,
    duration_s: float = 0.6,
) -> PipelineConfig:
    """A linear, valid-by-construction chain over the fleet workload
    modules: camera (pinned to the camera device) → 1–3 service stages →
    sink. Deployable against any home whose services
    :func:`random_home` installed."""
    stage_services = ["fleet_detector", "fleet_classifier", "fleet_alerter"]
    stage_count = rng.randint(1, 3)
    chosen = rng.sample(stage_services, stage_count)
    modules = [ModuleConfig(
        name="camera",
        include="./VideoStreamingModule.js",
        device=camera_device,
        next_modules=["stage0" if stage_count else "sink"],
        params={
            "fps": rng.choice([4.0, 8.0, 12.0]),
            "duration_s": duration_s,
        },
    )]
    for position, service in enumerate(chosen):
        is_last = position == stage_count - 1
        modules.append(ModuleConfig(
            name=f"stage{position}",
            include="./FleetStageModule.js",
            services=[service],
            next_modules=["sink" if is_last else f"stage{position + 1}"],
            params={"service": service, "stage": f"stage{position}"},
        ))
    modules.append(ModuleConfig(name="sink", include="./FleetSinkModule.js"))
    return PipelineConfig(name=f"deploy{index}", modules=modules)


def random_home(rng: random.Random, seed: int = 0, kernel=None) -> tuple[VideoPipe, str]:
    """A home with 2–4 devices and the fleet services installed (plus a
    second detector replica on homes that roll one). Returns the home and
    its camera device name."""
    home = VideoPipe(seed=seed, kernel=kernel)
    home.add_device("phone")
    hub_kind = rng.choice(["desktop", "laptop", "tablet"])
    from repro.devices.catalog import make_spec

    home.add_device(make_spec(hub_kind, "hub"))
    if rng.random() < 0.5:
        home.add_device("tv")
    if rng.random() < 0.3:
        home.add_device("fridge")
    install_home_services(home, "hub", "phone")
    if rng.random() < 0.3 and "tv" not in home.devices:
        # a second, slower detector replica on another container device —
        # exactly the situation where search can beat the heuristic
        home.add_device(make_spec("tablet", "tablet"))
        home.deploy_service(
            FunctionService("fleet_detector", lambda p, c: {"objects": 1},
                            reference_cost_s=0.016),
            "tablet", port=7913,
        )
    return home, "phone"
