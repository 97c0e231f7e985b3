"""Property-based placement tests over seeded random pipelines.

Three properties, checked over hundreds of generated configurations
(``REPRO_FUZZ_N``, default 200):

* **round-trip** — ``as_dict`` → JSON → ``parse_pipeline_json`` /
  ``config_from_dict`` reproduces the configuration exactly;
* **totality** — every placement strategy either assigns *every* module to
  a live device of the home, or raises a typed
  :class:`~repro.errors.PlacementError` (never a bare ``KeyError``) — with
  every device up, one crashed, or one service host crashed;
* **invariants** — deployed fuzz pipelines run to quiesce with zero
  auditor violations (frame-ref conservation, credit accounting, metrics
  cross-checks), under ``REPRO_AUDIT=1`` in the CI audit job and under an
  explicit ``enable_audit()`` here.

Everything is driven by ``random.Random`` with fixed seeds; the last test
pins down that determinism so a failure reproduces from its seed alone.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.errors import PlacementError
from repro.pipeline import (
    COLOCATED,
    OPTIMIZED,
    SINGLE_HOST,
    config_from_dict,
    parse_pipeline_json,
    plan_colocated,
    plan_optimized,
    plan_single_host,
)

from .strategies import (
    random_deployable_config,
    random_home,
    random_pipeline_config,
)

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))
ALL_STRATEGIES = (COLOCATED, SINGLE_HOST, OPTIMIZED)

#: Each strategy planning over a *subset* of a home's devices, the way the
#: online optimizer calls it (``home.plan`` always hands over every device).
PLANNERS = {
    COLOCATED: lambda home, config, live, camera: plan_colocated(
        config, live, home.registry, camera),
    SINGLE_HOST: lambda home, config, live, camera: plan_single_host(
        config, live, camera),
    OPTIMIZED: lambda home, config, live, camera: plan_optimized(
        config, live, home.registry, home.topology, camera),
}
OUTAGES = ("none", "device", "host")


def inject_outage(rng: random.Random, home, camera: str) -> str:
    """Crash one device (not the camera: without the default device every
    plan is rejected out of hand), or one service host on a device that
    stays up, or nothing; returns which."""
    kind = rng.choice(OUTAGES)
    if kind == "device":
        home.crash_device(rng.choice(sorted(set(home.devices) - {camera})))
    elif kind == "host":
        service = rng.choice(home.registry.service_names())
        rng.choice(home.registry.hosts_of(service)).crash()
    return kind


def test_parser_round_trip_fuzz():
    rng = random.Random(0xF002)
    for index in range(FUZZ_N):
        config = random_pipeline_config(rng, index)
        data = config.as_dict()
        # through json: what the parser sees is what a config file holds
        text = json.dumps(data)
        assert parse_pipeline_json(text).as_dict() == data, config.name
        assert config_from_dict(json.loads(text)).as_dict() == data, config.name


def test_placement_totality_fuzz():
    """Each strategy, planning over the devices still up after a seeded
    outage, yields a total assignment onto them or a PlacementError."""
    rng = random.Random(0xF003)
    home_rng = random.Random(0xF004)
    outage_rng = random.Random(0xF00E)
    outcomes = {strategy: {"planned": 0, "rejected": 0}
                for strategy in ALL_STRATEGIES}
    outages = set()
    for index in range(FUZZ_N):
        config = random_pipeline_config(rng, index)
        home, camera = random_home(home_rng, seed=index)
        outages.add(inject_outage(outage_rng, home, camera))
        live = {name: dev for name, dev in home.devices.items() if dev.up}
        module_names = {m.name for m in config.modules}
        for strategy in ALL_STRATEGIES:
            try:
                plan = PLANNERS[strategy](home, config, live, camera)
            except PlacementError:
                outcomes[strategy]["rejected"] += 1
                continue
            outcomes[strategy]["planned"] += 1
            assert set(plan.assignments) == module_names, (strategy, index)
            for module, device in plan.assignments.items():
                assert device in live, (strategy, index, module)
    # the generator must actually exercise every outage kind, and both
    # branches for every strategy
    assert outages == set(OUTAGES)
    for strategy, counts in outcomes.items():
        assert counts["planned"] > 0, (strategy, counts)
        assert counts["rejected"] > 0, (strategy, counts)


def test_optimized_is_at_least_as_strict_as_colocated():
    """`optimized` degrades to the co-located plan, so anything it places
    must be placeable by `colocated` too. The converse doesn't hold: the
    cost model must price every declared service call, so it rejects a
    *pinned* module whose service is hosted nowhere, which the co-located
    heuristic places without ever consulting services (pin wins)."""
    rng = random.Random(0xF005)
    home_rng = random.Random(0xF006)
    for index in range(FUZZ_N // 2):
        config = random_pipeline_config(rng, index)
        home, camera = random_home(home_rng, seed=index)
        verdicts = {}
        for strategy in (COLOCATED, OPTIMIZED):
            try:
                home.plan(config, strategy=strategy, default_device=camera)
                verdicts[strategy] = "placed"
            except PlacementError:
                verdicts[strategy] = "rejected"
        if verdicts[OPTIMIZED] == "placed":
            assert verdicts[COLOCATED] == "placed", (index, verdicts)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_deployed_fuzz_pipelines_pass_invariants(strategy):
    rng = random.Random(0xF007)
    runs = 6
    for index in range(runs):
        home, camera = random_home(rng, seed=2000 + index)
        home.enable_audit()
        config = random_deployable_config(rng, camera, index=index)
        home.deploy_pipeline(
            config, strategy=strategy,
            default_device=camera, host_device=camera,
        )
        home.run()
        violations = home.check_invariants()
        assert violations == [], (strategy, index, [v.describe() for v in violations])
        metrics = home.pipelines[0].metrics
        assert metrics.counter("frames_completed") > 0, (strategy, index)


def test_generators_are_deterministic():
    first = [random_pipeline_config(random.Random(77), i).as_dict()
             for i in range(40)]
    second = [random_pipeline_config(random.Random(77), i).as_dict()
              for i in range(40)]
    # same seed, same stream — but each call consumes the RNG, so re-seed
    rng_a, rng_b = random.Random(78), random.Random(78)
    streamed_a = [random_pipeline_config(rng_a, i).as_dict() for i in range(40)]
    streamed_b = [random_pipeline_config(rng_b, i).as_dict() for i in range(40)]
    assert first == second
    assert streamed_a == streamed_b

    homes_a = [sorted(random_home(random.Random(79), seed=i)[0].devices)
               for i in range(10)]
    homes_b = [sorted(random_home(random.Random(79), seed=i)[0].devices)
               for i in range(10)]
    assert homes_a == homes_b
