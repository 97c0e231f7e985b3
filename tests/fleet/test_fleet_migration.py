"""Live migration under load, at fleet scale.

The hard part of ``Deployer.migrate`` is not the happy path but migrating
*mid-stream*: a frame may be in flight inside the migrated module, queued
events must be drained, their frame refs released and the frames accounted
as dropped, and each dropped frame's §2.3 credit must still come back to
the source, with nothing but the runtime to return it. These
tests run migrations in a live fleet and then hold the auditor to the
usual quiesce bar: no frame-ref leaks, conserved frame accounting, and
strictly increasing frame ids at every sink.
"""

from __future__ import annotations

from repro.fleet import Fleet, FleetConfig
from repro.pipeline import OPTIMIZED, SINGLE_HOST


def _hub_of(home) -> str:
    # every fleet home hosts the detector on its (container-capable) hub
    return home.registry.hosts_of("fleet_detector")[0].device.name


def _assert_home_clean(home, pipeline) -> None:
    violations = home.check_invariants()
    assert violations == [], [v.describe() for v in violations]
    metrics = pipeline.metrics
    entered = metrics.counter("frames_entered")
    completed = metrics.counter("frames_completed")
    dropped = metrics.counter("frames_dropped")
    # no message loss: every admitted frame is either completed or
    # explicitly accounted as dropped (e.g. in flight during the migration)
    assert entered == completed + dropped, (entered, completed, dropped)
    sink = pipeline.module_instance("sink")
    assert sink.frame_ids == sorted(set(sink.frame_ids))


def test_migrate_mid_stream_under_load():
    fleet = Fleet(FleetConfig(homes=4, seed=11, strategy=SINGLE_HOST,
                              duration_s=3.0, tail_s=2.0, audit=True))
    fleet.kernel.run(until=1.0)
    frames_at_migration = []
    for home, pipeline in zip(fleet.homes, fleet.pipelines):
        sink = pipeline.module_instance("sink")
        frames_at_migration.append(len(sink.frame_ids))
        home.migrate_module(pipeline, "detect", _hub_of(home))
    fleet.run()

    report = fleet.report()
    assert report.migrations == 4
    assert report.completed > 0
    for home, pipeline, before in zip(fleet.homes, fleet.pipelines,
                                      frames_at_migration):
        _assert_home_clean(home, pipeline)
        assert pipeline.metrics.counter("migrations") == 1
        # the stream survived the migration: more frames reached the sink
        # after the cutover than before it
        sink = pipeline.module_instance("sink")
        assert len(sink.frame_ids) > before, (pipeline.name, before)


def test_migrate_there_and_back_stays_conserved():
    """Two migrations of the same module; accounting must stay exact even
    when a frame is in flight at each cutover."""
    fleet = Fleet(FleetConfig(homes=2, seed=13, strategy=SINGLE_HOST,
                              duration_s=3.0, tail_s=2.0, audit=True))
    fleet.kernel.run(until=0.8)
    for home, pipeline in zip(fleet.homes, fleet.pipelines):
        home.migrate_module(pipeline, "classify", _hub_of(home))
    fleet.kernel.run(until=1.6)
    for home, pipeline in zip(fleet.homes, fleet.pipelines):
        home.migrate_module(pipeline, "classify", "phone")
    fleet.run()

    for home, pipeline in zip(fleet.homes, fleet.pipelines):
        _assert_home_clean(home, pipeline)
        assert pipeline.metrics.counter("migrations") == 2


def test_migrate_in_optimized_fleet_with_tracing():
    """Migration composes with the optimized strategy and passive tracing:
    the observers must not perturb accounting, and the plan's placement is
    free to differ from the migration target."""
    fleet = Fleet(FleetConfig(homes=3, seed=17, strategy=OPTIMIZED,
                              duration_s=3.0, tail_s=2.0,
                              audit=True, tracing=True))
    fleet.kernel.run(until=1.2)
    for home, pipeline in zip(fleet.homes, fleet.pipelines):
        home.migrate_module(pipeline, "alert", _hub_of(home))
    fleet.run()

    report = fleet.report()
    assert report.migrations == 3
    assert report.drop_rate <= 0.1
    for home, pipeline in zip(fleet.homes, fleet.pipelines):
        _assert_home_clean(home, pipeline)
