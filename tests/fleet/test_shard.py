"""Sharded fleet execution: merge equivalence, assignment stability,
worker-failure reporting."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import FleetShardError
from repro.fleet import (
    Fleet,
    FleetConfig,
    FleetShardRunner,
    FleetReport,
    run_fleet,
    shard_assignment,
)

#: Provenance fields the merge is allowed to differ on.
PROVENANCE = ("shards", "shard_homes")


def _cfg(**overrides) -> FleetConfig:
    defaults = dict(homes=12, seed=11, duration_s=1.0, tail_s=0.5)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _comparable(report: FleetReport) -> dict:
    data = report.as_dict()
    for key in PROVENANCE:
        data.pop(key)
    return data


def test_shard_assignment_round_robin():
    assignment = shard_assignment(homes=10, shards=4)
    assert assignment == {
        0: [0, 4, 8], 1: [1, 5, 9], 2: [2, 6], 3: [3, 7],
    }
    # growing the fleet never moves an existing home to another shard
    grown = shard_assignment(homes=14, shards=4)
    for shard, indices in assignment.items():
        assert grown[shard][: len(indices)] == indices
    # more shards than homes leaves the excess shards empty
    sparse = shard_assignment(homes=2, shards=4)
    assert sparse == {0: [0], 1: [1], 2: [], 3: []}


def test_sharded_report_matches_single_kernel():
    # the tentpole claim: shard count never changes any home's results
    single = run_fleet(_cfg(shards=1))
    by_shards = {n: run_fleet(_cfg(shards=n)) for n in (2, 4)}
    for n, sharded in by_shards.items():
        assert _comparable(sharded) == _comparable(single)
        assert sharded.shards == n
        assert sum(sharded.shard_homes.values()) == 12
        for a, b in zip(single.results, sharded.results):
            assert a.index == b.index
            assert a.latencies == b.latencies  # bit-identical, not approx
            assert a.sink_frame_ids == b.sink_frame_ids
            assert a.devices == b.devices
            assert a.strategy == b.strategy
            assert b.shard == b.index % n


def test_single_shard_runner_matches_in_process_fleet():
    cfg = _cfg(homes=4)
    fleet = Fleet(cfg)
    fleet.run()
    direct = fleet.report()
    via_runner = FleetShardRunner(cfg).run()
    assert _comparable(via_runner) == _comparable(direct)


def test_subset_build_reproduces_full_fleet_home():
    # a worker building only home 3 gets the exact home the full fleet has
    cfg = _cfg(homes=6)
    full = Fleet(cfg)
    subset = Fleet(cfg, home_indices=[3])
    assert subset.home_seeds == [full.home_seeds[3]]
    assert sorted(subset.homes[0].devices) == sorted(full.homes[3].devices)
    assert subset.pipelines[0].name == "home3"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the fault reaches the workers by fork")
def test_crashed_shard_names_the_shard(monkeypatch):
    # forked workers inherit the patched class: shard 1 runs homes 1, 3, 5, 7
    real_run = Fleet.run

    def run(self, until=None):
        if 1 in self.home_indices:
            raise RuntimeError("injected fault")
        return real_run(self, until)

    monkeypatch.setattr(Fleet, "run", run)
    with pytest.raises(FleetShardError, match="shard 1") as excinfo:
        run_fleet(_cfg(homes=8, shards=2, duration_s=0.5))
    assert excinfo.value.shard == 1


def test_sharded_run_is_deterministic():
    first = run_fleet(_cfg(shards=3))
    second = run_fleet(_cfg(shards=3))
    assert first.as_dict() == second.as_dict()
