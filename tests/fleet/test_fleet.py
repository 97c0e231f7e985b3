"""Fleet harness basics: shape, determinism, validation, graceful fallback."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fleet import Fleet, FleetConfig, home_seed, run_fleet
from repro.pipeline import COLOCATED, OPTIMIZED, SINGLE_HOST, OptimizerConfig


def _small(strategy=COLOCATED, **overrides) -> FleetConfig:
    defaults = dict(homes=5, seed=7, strategy=strategy,
                    duration_s=1.5, tail_s=1.0)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def test_fleet_report_shape():
    report = run_fleet(_small())
    assert report.homes == 5
    assert len(report.results) == 5
    assert report.completed > 0
    assert report.dropped == 0
    assert report.drop_rate == 0.0
    assert report.latency.mean > 0
    assert report.latency.p50 <= report.latency.p99
    for result in report.results:
        assert result.completed == len(result.latencies)
        assert result.completed == len(result.sink_frame_ids)
        # §2.3 credit protocol: one frame in flight, so sink ids are
        # strictly increasing
        assert result.sink_frame_ids == sorted(set(result.sink_frame_ids))
        assert len(result.devices) >= 2
    as_dict = report.as_dict()
    assert as_dict["homes"] == 5
    assert as_dict["latency"]["mean"] == report.latency.mean
    assert report.strategy in report.describe()


def test_fleet_homes_are_heterogeneous():
    fleet = Fleet(_small(homes=8))
    mixes = {tuple(sorted(home.devices)) for home in fleet.homes}
    assert len(mixes) > 1
    for home in fleet.homes:
        assert "phone" in home.devices


def test_fleet_is_deterministic_under_seed():
    first = run_fleet(_small(strategy=OPTIMIZED))
    second = run_fleet(_small(strategy=OPTIMIZED))
    assert first.as_dict() == second.as_dict()
    for a, b in zip(first.results, second.results):
        assert a.latencies == b.latencies
        assert a.sink_frame_ids == b.sink_frame_ids
        assert a.strategy == b.strategy


def test_fleet_seed_changes_outcome():
    base = run_fleet(_small())
    other = run_fleet(_small(seed=8))
    assert base.as_dict() != other.as_dict()


def test_optimized_fleet_falls_back_gracefully():
    report = run_fleet(_small(strategy=OPTIMIZED))
    # per-home plans are either genuinely optimized or the co-located
    # fallback — never anything else, and never an error
    assert {r.strategy for r in report.results} <= {OPTIMIZED, COLOCATED}


def test_single_host_is_slower_than_colocated():
    single = run_fleet(_small(strategy=SINGLE_HOST, duration_s=2.0))
    colocated = run_fleet(_small(strategy=COLOCATED, duration_s=2.0))
    assert colocated.latency.mean < single.latency.mean


def test_home_seeds_do_not_collide_across_master_seeds():
    # regression: the old affine derivation (seed + 101 * index) made home
    # i under master seed s bit-identical to home i-1 under seed s + 101,
    # so fleet-level seed-sensitivity comparisons silently reused homes
    f_a = Fleet(_small(seed=0, homes=3))
    f_b = Fleet(_small(seed=101, homes=3))
    assert f_a.home_seeds[1] != f_b.home_seeds[0]
    assert f_a.home_seeds[2] != f_b.home_seeds[1]
    # and no collisions anywhere on a seed x index grid
    grid = {home_seed(s, i) for s in range(20) for i in range(50)}
    assert len(grid) == 20 * 50


def test_run_honors_explicit_horizon():
    # regression: run(until=...) ran the kernel to the horizon, then the
    # unbounded drain call ran everything scheduled *after* it anyway
    cfg = _small(duration_s=2.0, tail_s=1.0)
    short = Fleet(cfg)
    short.run(until=0.5)
    assert short.kernel.now == pytest.approx(0.5)
    partial = short.report()
    full = run_fleet(cfg)
    assert 0 < partial.completed < full.completed
    # the default run still drains past the capture horizon
    assert full.completed == sum(len(r.sink_frame_ids) for r in full.results)


class _Executed:
    """Passive kernel observer: the time of every executed event."""

    def __init__(self):
        self.times = []

    def on_schedule(self, now, event):
        pass

    def on_execute(self, now, event):
        self.times.append(now)


def test_horizon_on_a_replan_tick_is_exact():
    # until= lands exactly on the online optimizers' first replan tick: the
    # tick runs, the optimizers stop at the horizon, nothing after it runs
    tick = OptimizerConfig().replan_interval_s
    cfg = _small(strategy=OPTIMIZED, online=True, duration_s=2 * tick)
    reports = []
    for _ in range(2):
        fleet = Fleet(cfg)
        ticks = {home.optimizer._ticker._tick for home in fleet.homes}
        executed = _Executed()
        fleet.kernel.add_observer(executed)
        assert fleet.run(until=tick) == tick
        assert fleet.kernel.now == tick
        assert tick in executed.times
        assert max(executed.times) == tick
        assert fleet.kernel.pending_events > 0  # later work stays unrun
        pending = [entry[3] for entry in fleet.kernel._heap
                   if not entry[3].cancelled]
        assert ticks and not any(e.callback in ticks for e in pending)
        reports.append(fleet.report().as_dict())
    assert reports[0] == reports[1]


def test_report_surfaces_plan_fallbacks():
    report = run_fleet(_small(strategy=OPTIMIZED))
    fell_back = sum(1 for r in report.results if r.strategy == COLOCATED)
    assert report.plans_fell_back == fell_back
    assert report.as_dict()["plans_fell_back"] == fell_back
    # only an optimized request can "fall back"; colocated is just colocated
    assert run_fleet(_small(strategy=COLOCATED)).plans_fell_back == 0


def test_fleet_config_validation():
    with pytest.raises(ConfigError):
        FleetConfig(homes=0)
    with pytest.raises(ConfigError):
        FleetConfig(strategy="bogus")
    with pytest.raises(ConfigError):
        FleetConfig(fps_choices=())
    with pytest.raises(ConfigError):
        FleetConfig(fps_choices=(4.0, -1.0))
    with pytest.raises(ConfigError):
        FleetConfig(duration_s=0.0)
    with pytest.raises(ConfigError):
        FleetConfig(tail_s=-1.0)
    with pytest.raises(ConfigError):
        FleetConfig(shards=0)
    with pytest.raises(ConfigError):
        Fleet(FleetConfig(homes=3), home_indices=[0, 5])


def test_fleet_shares_one_kernel():
    fleet = Fleet(_small(homes=3))
    kernels = {home.kernel for home in fleet.homes}
    assert kernels == {fleet.kernel}
    fleet.run()
    report = fleet.report()
    assert report.completed > 0
