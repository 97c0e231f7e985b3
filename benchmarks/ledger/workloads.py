"""The four workloads, built only through the public ``repro`` API.

Each workload is four steps. ``prepare`` is set-up (training, input
generation from the seed) and runs once per process; ``build``, ``run`` and
``report`` are the phases of the timed job and run once per repeat in fresh
state. Every step takes what the previous one returned. ``World`` is what a
job leaves behind for the untimed inspection in :mod:`.child`.

This module does not import ``benchmarks/conftest.py``: the
paper-reproduction benches stay free to change without moving the ledger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro import VideoPipe
from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    gesture_pipeline_config,
    install_fitness_services,
    install_gesture_services,
    train_activity_recognizer,
    train_gesture_recognizer,
)
from repro.devices import DeviceSpec
from repro.fleet import Fleet, FleetConfig
from repro.net.link import WAN_METRO


@dataclass(slots=True)
class World:
    """One built job: what to run and what to inspect afterwards."""

    kernel: Any
    homes: list
    pipelines: list
    #: simulated seconds each camera captures for (``sim_fps`` denominator)
    capture_s: float
    #: the object ``run``/``report`` drive (a Fleet, or the home itself)
    driver: Any
    #: True when ``homes[0].check_invariants()`` is part of the report
    audited: bool = False


@dataclass(frozen=True, slots=True)
class WorkloadImpl:
    prepare: Callable[[int], Any]
    build: Callable[[Any], World]
    run: Callable[[World], None]
    report: Callable[[World], Any]


def derive_seed(workload: str, seed: int, purpose: str) -> int:
    """Every seed a workload uses, from ``--seed`` alone (string-keyed
    streams, the idiom ``repro.fleet.home_seed`` uses, so streams never
    collide across workloads or purposes)."""
    return random.Random(f"ledger/{workload}/{purpose}/{seed}").getrandbits(31)


# -- fleet workloads ---------------------------------------------------------
def _fleet_workload(
    name: str, homes: int, per_size: int | None = None, **shape: Any
) -> WorkloadImpl:
    """A fleet of *homes* homes under ``FleetConfig(**shape)``.

    With *per_size*, the homes are a stratified sample of a four times
    larger seeded population: *per_size* homes of each device count (a home
    has 2-5 devices). ``plan_optimized`` searches ``devices ** 4``
    placements, so an unstratified draw of 16 homes moved the build time,
    and with it ``frames_per_host_s``, by 16 % between seeds — input
    lottery, not the program. The device *kinds* still vary with the seed.
    """
    def prepare(seed: int) -> tuple[FleetConfig, list[int] | None]:
        fleet_seed = derive_seed(name, seed, "fleet")
        if per_size is None:
            return FleetConfig(homes=homes, seed=fleet_seed, **shape), None
        config = FleetConfig(homes=4 * homes, seed=fleet_seed, **shape)
        # a home's device mix depends on (seed, index) only, so a cheap
        # co-located build of the population shows every home's size
        population = Fleet(replace(config, strategy="colocated"))
        by_size: dict[int, list[int]] = {}
        for index, home in enumerate(population.homes):
            by_size.setdefault(len(home.devices), []).append(index)
        chosen = sorted(
            index for indices in by_size.values()
            for index in indices[:per_size]
        )
        if len(chosen) != homes:
            raise ValueError(f"{name}: population lacks a stratum: {by_size}")
        return config, chosen

    def build(inputs: tuple[FleetConfig, list[int] | None]) -> World:
        config, home_indices = inputs
        fleet = Fleet(config, home_indices=home_indices)
        return World(
            kernel=fleet.kernel,
            homes=fleet.homes,
            pipelines=fleet.pipelines,
            capture_s=config.duration_s,
            driver=fleet,
        )

    return WorkloadImpl(
        prepare=prepare,
        build=build,
        run=lambda world: world.driver.run(),
        report=lambda world: world.driver.report(),
    )


# -- the paper's shared-pose home --------------------------------------------
@dataclass(frozen=True, slots=True)
class _HomeInputs:
    home_seed: int
    fitness_recognizer: Any
    gesture_recognizer: Any


def _home_workload(
    name: str, duration_s: float, static_scene: bool, features_on: bool
) -> WorkloadImpl:
    fps = 30.0

    def prepare(seed: int) -> _HomeInputs:
        train_seed = derive_seed(name, seed, "train")
        return _HomeInputs(
            home_seed=derive_seed(name, seed, "home"),
            fitness_recognizer=train_activity_recognizer(seed=train_seed),
            gesture_recognizer=train_gesture_recognizer(seed=train_seed),
        )

    def build(inputs: _HomeInputs) -> World:
        home = VideoPipe.paper_testbed(seed=inputs.home_seed)
        # the second camera of Table 2's sharing column: a phone that
        # cannot host containers, so both pipelines share the desktop's pose
        home.add_device(DeviceSpec(
            name="camera", kind="phone", cpu_factor=2.5, cores=8,
            supports_containers=False,
        ))
        if features_on:
            home.enable_fast_path()
            home.enable_data_plane()
            home.enable_tracing()
            home.enable_audit()
        fitness = install_fitness_services(
            home, recognizer=inputs.fitness_recognizer
        )
        install_gesture_services(home, recognizer=inputs.gesture_recognizer)
        pipelines = [
            FitnessApp(home, fitness).deploy(fitness_pipeline_config(
                fps=fps, duration_s=duration_s, static_scene=static_scene,
            )),
            home.deploy_pipeline(
                gesture_pipeline_config(fps=fps, duration_s=duration_s)
            ),
        ]
        return World(
            kernel=home.kernel,
            homes=[home],
            pipelines=pipelines,
            capture_s=duration_s,
            driver=home,
            audited=features_on,
        )

    def run(world: World) -> None:
        home = world.driver
        home.run(until=duration_s + 1.0)
        home.run()  # drain what the horizon left in flight

    def report(world: World) -> dict:
        home = world.driver
        out: dict[str, Any] = {
            pipeline.name: {
                "fps": pipeline.metrics.throughput_fps(duration_s + 1.0, 2.0),
                "latency": pipeline.metrics.total_latency_summary(),
                "stages_ms": pipeline.metrics.stage_means_ms(),
            }
            for pipeline in world.pipelines
        }
        if features_on:
            out["perf"] = home.perf_stats()
            out["data_plane"] = home.data_plane_stats()
            out["violations"] = home.check_invariants()
        return out

    return WorkloadImpl(prepare=prepare, build=build, run=run, report=report)


#: Sizes are frozen here; the names in :mod:`.table` carry the home counts.
#: Both fleets run every camera at 6 fps: the per-home fps lottery is input
#: noise (it moved ``sim_fps`` by 4-8 % between seeds), while the device mix,
#: which is what changes the placement problem, still varies with the seed.
IMPLS: dict[str, WorkloadImpl] = {
    "fleet-stage-90": _fleet_workload(
        "fleet-stage-90", homes=90,
        strategy="colocated", workload="stage",
        fps_choices=(6.0,), duration_s=2.0, tail_s=1.0,
    ),
    # The stock metro uplink plus home Wi-Fi retransmit on almost exactly 1 %
    # of this workload's frames, which puts p99 on a knife edge (49 ms or
    # 94 ms, by seed). A 2 % lossy uplink puts ~5 % of frames in the slow
    # mode and p99 firmly with them; the planner prices links by expected
    # delay, so placement is unchanged.
    "fleet-plan-cloud-16": _fleet_workload(
        "fleet-plan-cloud-16", homes=16, per_size=4,
        strategy="optimized", cloud=True,
        wan=replace(WAN_METRO, loss_prob=0.02),
        fps_choices=(6.0,), duration_s=4.0, tail_s=1.0,
    ),
    "home-fitness-shared": _home_workload(
        "home-fitness-shared",
        duration_s=44.0, static_scene=False, features_on=False,
    ),
    "home-static-features-on": _home_workload(
        "home-static-features-on",
        duration_s=20.0, static_scene=True, features_on=True,
    ),
}
