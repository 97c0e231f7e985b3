"""Integration: the zero-copy data plane is deterministic and auditable.

The arena and the replica pool sit on the hottest paths in the home
(every intra-device hop, every service dispatch), so they get the same
treatment as the fast path: run twice under the event tap and require
bit-for-bit identical streams, and run them under the auditor.
"""

from repro.core import VideoPipe
from scenarios import DURATION_S, activity_recognizer, run


def _fitness_scenario():
    """quickstart's shape with the data plane on."""

    def scenario(seed):
        from repro.apps import (
            FitnessApp,
            fitness_pipeline_config,
            install_fitness_services,
        )

        home = VideoPipe.paper_testbed(seed=seed)
        home.enable_data_plane()
        services = install_fitness_services(
            home, recognizer=activity_recognizer())
        app = FitnessApp(home, services)
        pipeline = app.deploy(
            fitness_pipeline_config(fps=10.0, duration_s=DURATION_S))

        def run_fn():
            return {**run(home, pipeline),
                    "data_plane": home.data_plane_stats()}

        return home, run_fn

    return scenario


def test_data_plane_scenario_is_deterministic(assert_deterministic):
    report = assert_deterministic(
        _fitness_scenario(), seed=7, name="data_plane")
    assert report.event_count > 500  # the scenario actually exercised the home


def test_audited_data_plane_run_is_clean():
    """A full fitness run with arena + pool under the auditor: frames
    complete, the arena drains, and no conservation law fires."""
    from repro.apps import (
        FitnessApp,
        fitness_pipeline_config,
        install_fitness_services,
    )

    home = VideoPipe.paper_testbed(seed=7)
    auditor = home.enable_audit()
    home.enable_data_plane()
    services = install_fitness_services(home, recognizer=activity_recognizer())
    app = FitnessApp(home, services)
    pipeline = app.deploy(
        fitness_pipeline_config(fps=10.0, duration_s=DURATION_S))
    home.run(until=DURATION_S + 1.0)
    assert pipeline.metrics.counter("frames_completed") > 0
    stats = home.data_plane_stats()
    assert stats["arena"]["allocs"] > 0
    assert stats["arena"]["stale_accesses"] == 0
    assert stats["pool"]["grants"] > 0
    if home.kernel.pending_events == 0:
        auditor.check_quiesce()
    else:
        auditor.check_now()
    assert not auditor.violations, auditor.report()
