"""Frozen placement inputs: every ``examples/`` home + its pipelines.

Reuses ``EXAMPLE_SCENARIOS`` (``tools/scenarios.py``) — each scenario
builds its home with the example's own ``build``: the example's device and
service topology with its pipeline(s) deployed — then recomputes the three
placement plans (co-located, single-host, optimized) for every deployed
pipeline's config. The golden test freezes the resulting assignments; a
placement-affecting change must show up as a reviewed golden diff, never as
silent drift.

Also home to the helpers the fleet-population golden and the
reference-scorer test share: seeded fleet homes, and the candidates the
exhaustive search visits, one at a time and as its one batch.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from repro.fleet import Fleet, FleetConfig
from repro.net.link import WAN_METRO
from repro.pipeline import COLOCATED, OPTIMIZED, SINGLE_HOST
from scenarios import EXAMPLE_SCENARIOS

#: Strategies frozen in the goldens: all of them.
GOLDEN_STRATEGIES = (COLOCATED, SINGLE_HOST, OPTIMIZED)

#: The scenario seed (the scenarios train their models once per process,
#: whatever the seed).
SEED = 1

EXAMPLE_NAMES = tuple(
    filename.removesuffix(".py") for filename in EXAMPLE_SCENARIOS
)


def example_placements(example: str) -> dict:
    """All strategies' assignments for every pipeline of one example.

    Returns ``{pipeline: {strategy: {"strategy": ..., "assignments": ...}}}``
    — ``strategy`` is the *plan's* tag, so an ``optimized`` entry whose tag
    reads ``colocated`` records that the search fell back to the heuristic.
    """
    scenario = EXAMPLE_SCENARIOS[f"{example}.py"]
    home, _run_fn = scenario(seed=SEED)
    placements: dict[str, dict] = {}
    for pipeline in home.pipelines:
        per_strategy = {}
        for strategy in GOLDEN_STRATEGIES:
            plan = home.plan(pipeline.config, strategy=strategy)
            per_strategy[strategy] = {
                "strategy": plan.strategy,
                "assignments": dict(sorted(plan.assignments.items())),
            }
        placements[pipeline.name] = per_strategy
    return placements


def fleet_homes(seed: int, homes: int, cloud: bool, strategy: str) -> list:
    """``(index, home, pipeline)`` for every home of a seeded fleet, built
    but not run; with *cloud*, behind the ledger's 2 % lossy metro WAN."""
    fleet = Fleet(FleetConfig(
        homes=homes, seed=seed, strategy=strategy, cloud=cloud,
        wan=replace(WAN_METRO, loss_prob=0.02) if cloud else None,
    ))
    return list(zip(fleet.home_indices, fleet.homes, fleet.pipelines))


def every_candidate(config, devices):
    """Every assignment ``plan_optimized``'s exhaustive search scores, in
    the order (and with the dict key order) it builds them."""
    fixed = {m.name: m.device for m in config.modules if m.device is not None}
    free = [m.name for m in config.modules if m.device is None]
    for choice in itertools.product(sorted(devices), repeat=len(free)):
        yield {**fixed, **dict(zip(free, choice))}


def candidate_rows(config, devices):
    """The same candidates as :func:`every_candidate`, as the one batch the
    exhaustive search prices: ``(base, free, rows)`` for
    ``CostModel.sweep``, one row of device indices per candidate."""
    fixed = {m.name: m.device for m in config.modules if m.device is not None}
    free = [m.name for m in config.modules if m.device is None]
    names = sorted(devices)
    rows = list(itertools.product(range(len(names)), repeat=len(free)))
    return {**fixed, **dict.fromkeys(free, names[0])}, free, rows
