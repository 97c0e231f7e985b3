"""Integration: live module migration (§7 'automatic deployment')."""

import pytest

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.core import VideoPipe
from repro.errors import ConfigError


@pytest.fixture
def running_fitness(fitness_recognizer):
    home = VideoPipe.paper_testbed(seed=13)
    services = install_fitness_services(home, recognizer=fitness_recognizer)
    app = FitnessApp(home, services)
    pipeline = app.deploy(fitness_pipeline_config(fps=10.0, duration_s=20.0))
    home.run(until=6.0)  # warm, mid-run
    return home, services, pipeline


class TestLiveMigration:
    def test_rep_counter_moves_and_keeps_counting(self, running_fitness):
        home, services, pipeline = running_fitness
        rep_module = pipeline.module_instance("rep_counter_module")
        reps_before = rep_module.reps
        frames_before = len(rep_module._features)
        assert pipeline.device_of("rep_counter_module") == "tv"

        home.migrate_module(pipeline, "rep_counter_module", "desktop")

        assert pipeline.device_of("rep_counter_module") == "desktop"
        assert pipeline.wiring.address_of("rep_counter_module").device == "desktop"
        # the same instance, same state, on the new device
        assert pipeline.module_instance("rep_counter_module") is rep_module
        assert len(rep_module._features) == frames_before

        home.run(until=20.5)
        assert rep_module.reps >= reps_before
        assert len(rep_module._features) > frames_before  # kept receiving
        assert pipeline.metrics.counter("migrations") == 1
        # no errors after the move
        assert pipeline.module("rep_counter_module").errors == []

    def test_pipeline_keeps_flowing_after_migration(self, running_fitness):
        home, services, pipeline = running_fitness
        shown_before = services.sink.count
        home.migrate_module(pipeline, "rep_counter_module", "desktop")
        home.run(until=20.5)
        assert services.sink.count > shown_before + 50

    def test_migrated_stub_locality_flips(self, running_fitness):
        """On the TV the rep counter service was local; on the desktop the
        module must call it remotely — the stub is rebuilt."""
        home, _, pipeline = running_fitness
        ctx = pipeline.module("rep_counter_module").ctx
        assert ctx.service_is_local("rep_counter")
        home.migrate_module(pipeline, "rep_counter_module", "desktop")
        new_ctx = pipeline.module("rep_counter_module").ctx
        assert not new_ctx.service_is_local("rep_counter")
        home.run(until=20.5)
        assert pipeline.module("rep_counter_module").errors == []

    def test_migrate_to_same_device_is_noop(self, running_fitness):
        home, _, pipeline = running_fitness
        deployed = pipeline.module("rep_counter_module")
        home.migrate_module(pipeline, "rep_counter_module", "tv")
        assert pipeline.module("rep_counter_module") is deployed
        assert pipeline.metrics.counter("migrations") == 0

    def test_no_frame_leaks_after_migration(self, running_fitness):
        home, _, pipeline = running_fitness
        home.migrate_module(pipeline, "display_module", "desktop")
        home.run(until=21.5)  # past source end: drain
        for device in home.devices.values():
            assert len(device.frame_store) <= 1, device.name

    def test_migrate_before_deploy_rejected(self):
        home = VideoPipe.paper_testbed(seed=0)
        with pytest.raises(ConfigError):
            home.migrate_module(None, "x", "desktop")


class TestMigrationUnderLoad:
    def test_critical_path_migration_with_watchdog(self, fitness_recognizer):
        """Migrating the display module (the credit signaler) mid-stream can
        drop an in-flight frame; its credit still comes back, so the
        pipeline always recovers."""
        home = VideoPipe.paper_testbed(seed=14)
        services = install_fitness_services(home,
                                            recognizer=fitness_recognizer)
        app = FitnessApp(home, services)
        config = fitness_pipeline_config(fps=10.0, duration_s=25.0)
        pipeline = app.deploy(config)

        # bounce the display module between devices while streaming
        for i, at in enumerate((5.0, 10.0, 15.0)):
            target = "desktop" if i % 2 == 0 else "tv"
            home.kernel.schedule(
                at, lambda t=target: home.migrate_module(
                    pipeline, "display_module", t)
            )
        home.run(until=26.0)

        assert pipeline.metrics.counter("migrations") == 3
        # the stream survived every move: frames kept completing to the end
        completions = pipeline.metrics.completions.timestamps
        assert completions[-1] > 20.0
        assert pipeline.metrics.counter("frames_completed") > 100
        # no reference leaks despite dropped in-flight frames
        home.run(until=28.0)
        for device in home.devices.values():
            assert len(device.frame_store) <= 1, device.name
