"""Golden placement tests: frozen assignments for every example home.

Each ``tests/pipeline/goldens/<example>.json`` holds the co-located,
single-host and optimized assignments for that example's pipelines, and
``fleet_population.json`` holds what ``plan_optimized`` returns, and how it
scores every candidate, on 96 seeded fleet homes. Any drift fails with a
per-module diff; regenerate deliberately with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/pipeline/test_placement_goldens.py

and review the golden diff like any other code change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

import pytest

from repro.pipeline import OPTIMIZED, CostModel

from .example_homes import (
    EXAMPLE_NAMES,
    every_candidate,
    example_placements,
    fleet_homes,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
FLEET_GOLDEN = "fleet_population.json"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"


def _diff(golden: dict, actual: dict) -> list[str]:
    """Human-readable per-module drift between two placement mappings."""
    lines: list[str] = []
    for pipeline in sorted(set(golden) | set(actual)):
        if pipeline not in golden:
            lines.append(f"  pipeline {pipeline!r}: new (not in golden)")
            continue
        if pipeline not in actual:
            lines.append(f"  pipeline {pipeline!r}: missing (in golden only)")
            continue
        g_strats, a_strats = golden[pipeline], actual[pipeline]
        for strategy in sorted(set(g_strats) | set(a_strats)):
            g = g_strats.get(strategy)
            a = a_strats.get(strategy)
            if g is None or a is None:
                lines.append(
                    f"  {pipeline}/{strategy}: "
                    + ("new strategy" if g is None else "strategy removed")
                )
                continue
            if g["strategy"] != a["strategy"]:
                lines.append(
                    f"  {pipeline}/{strategy}: plan tag"
                    f" {g['strategy']!r} -> {a['strategy']!r}"
                )
            g_assign, a_assign = g["assignments"], a["assignments"]
            for module in sorted(set(g_assign) | set(a_assign)):
                was = g_assign.get(module, "<unplaced>")
                now = a_assign.get(module, "<unplaced>")
                if was != now:
                    lines.append(
                        f"  {pipeline}/{strategy}: {module}: {was} -> {now}"
                    )
    return lines


def _check_golden(name: str, actual: dict, diff) -> None:
    """Compare *actual* with ``goldens/<name>``, or (re)write the file when
    asked to or when it does not exist yet."""
    path = GOLDEN_DIR / name
    if UPDATE or not path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        if not UPDATE:
            pytest.fail(
                f"golden {path.name} did not exist; wrote it — review and"
                " commit, then re-run"
            )
        return
    golden = json.loads(path.read_text(encoding="utf-8"))
    if golden != actual:
        drift = "\n".join(diff(golden, actual))
        pytest.fail(
            f"placement drift vs {path.name} (set REPRO_UPDATE_GOLDENS=1 to"
            f" regenerate deliberately):\n{drift}"
        )


@pytest.mark.parametrize("example", EXAMPLE_NAMES)
def test_example_placements_match_golden(example):
    _check_golden(f"{example}.json", example_placements(example), _diff)


def fleet_population() -> dict:
    """What the priced search returns and how it scores on seeded fleet
    homes: seeds 0 and 1, 24 homes each, without and with the cloud tier
    (the ledger's 2 % lossy metro WAN).

    Per home: the returned plan's tag and assignments, its ``total`` and
    penalties as ``float.hex``, and a SHA-256 over the ``total`` of *every*
    candidate in the order the exhaustive search visits them — so a single
    changed bit in any candidate's score shows, not just a changed winner.
    """
    population: dict[str, dict] = {}
    for seed, cloud in itertools.product((0, 1), (False, True)):
        for index, home, pipeline in fleet_homes(seed, 24, cloud, OPTIMIZED):
            model = CostModel(
                pipeline.config, home.devices, home.registry, home.topology
            )
            digest = hashlib.sha256()
            candidates = 0
            for assignments in every_candidate(pipeline.config, home.devices):
                digest.update(model.score(assignments).total.hex().encode())
                candidates += 1
            plan = pipeline.placement
            cost = model.score(plan.assignments)
            tier = "cloud" if cloud else "edge"
            population[f"seed{seed}/{tier}/home{index:02d}"] = {
                "strategy": plan.strategy,
                "assignments": dict(sorted(plan.assignments.items())),
                "total": cost.total.hex(),
                "capacity_penalty_s": cost.capacity_penalty_s.hex(),
                "memory_penalty_s": cost.memory_penalty_s.hex(),
                "candidates": candidates,
                "candidates_sha256": digest.hexdigest(),
            }
    return population


def test_fleet_population_matches_golden():
    def diff(golden: dict, actual: dict) -> list[str]:
        lines = []
        for home in sorted(set(golden) | set(actual)):
            was, now = golden.get(home, {}), actual.get(home, {})
            lines.extend(
                f"  {home}: {field}: {was.get(field)!r} -> {now.get(field)!r}"
                for field in sorted(set(was) | set(now))
                if was.get(field) != now.get(field)
            )
        return lines

    _check_golden(FLEET_GOLDEN, fleet_population(), diff)


def test_goldens_cover_every_example():
    """A new example must get a golden (mirrors the determinism coverage
    test): stale or missing files fail here rather than silently skipping."""
    expected = {f"{name}.json" for name in EXAMPLE_NAMES} | {FLEET_GOLDEN}
    on_disk = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == expected, (
        f"missing: {sorted(expected - on_disk)},"
        f" stale: {sorted(on_disk - expected)}"
    )
