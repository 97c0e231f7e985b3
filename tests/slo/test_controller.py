"""The SLO controller's closed loop: degrade, hold, recover — audited."""

import pytest

from repro.core.videopipe import VideoPipe
from repro.apps.fitness import (
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.slo import SLO, SLOConfig, attainment
from repro.slo.detector import DetectorReading
from repro.slo.spec import HEALTHY, OVERLOADED, STRAINED

SLO_T = SLO(p99_latency_s=0.25, min_fps=4.0, window_s=2.0)
#: Fast loop for tests: act every 0.5 s at most, restore after 1 s healthy.
CONFIG = SLOConfig(check_interval_s=0.25, hysteresis_s=0.5,
                   recovery_hold_s=1.0, use_optimizer=False)


def force_state(controller, state):
    """Pin the detector's classification, keeping everything else real."""
    def fake_reading(pipeline, slo, *, enrolled_at=0.0, paused=False):
        return DetectorReading(
            at=controller.kernel.now, state=state, latency_ratio=0.0,
            fps_ratio=1.0, queue_pressure=0.0, samples=10, paused=paused,
        )
    controller.detector.reading = fake_reading


@pytest.fixture
def home(fitness_recognizer):
    home = VideoPipe.paper_testbed(seed=7)
    install_fitness_services(home, recognizer=fitness_recognizer)
    return home


@pytest.fixture
def enrolled(home):
    home.enable_slo(config=CONFIG)
    pipeline = home.deploy_pipeline(fitness_pipeline_config(fps=10.0),
                                    slo=SLO_T)
    return home, home.slo, pipeline


class TestEnrollment:
    def test_watch_is_idempotent(self, enrolled):
        _, controller, pipeline = enrolled
        first = controller.enrollment("fitness")
        assert controller.watch(pipeline, SLO_T) is first
        assert len(controller.enrollments) == 1

    def test_no_slo_no_default_is_left_alone(self, home):
        home.enable_slo(config=CONFIG)
        pipeline = home.deploy_pipeline(fitness_pipeline_config(fps=10.0))
        assert home.slo.enrollment("fitness") is None
        assert pipeline is not None

    def test_pipelines_deployed_before_enable_are_enrolled(
            self, home):
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        home.enable_slo(config=CONFIG)
        assert home.slo.enrollment("fitness") is not None


class TestDegradeAndRecover:
    def test_sustained_overload_walks_the_ladder_down(self, enrolled):
        home, controller, _ = enrolled
        force_state(controller, OVERLOADED)
        home.run_for(2.0)
        enrollment = controller.enrollment("fitness")
        assert enrollment.depth >= 2
        # without autoscaler/optimizer rungs, resolution goes first
        assert enrollment.applied_steps()[0] == "resolution"
        assert all(a.kind == "degrade"
                   for a in controller.ladder_actions("fitness"))

    def test_actions_respect_hysteresis(self, enrolled):
        home, controller, _ = enrolled
        force_state(controller, OVERLOADED)
        home.run_for(3.0)
        times = [a.at for a in controller.ladder_actions()]
        assert len(times) >= 2
        spacing = [b - a for a, b in zip(times, times[1:])]
        assert min(spacing) >= CONFIG.hysteresis_s - 1e-9

    def test_strained_holds_without_acting(self, enrolled):
        home, controller, _ = enrolled
        force_state(controller, STRAINED)
        home.run_for(3.0)
        assert controller.ladder_actions() == []
        assert controller.enrollment("fitness").state == STRAINED

    def test_recovery_retraces_in_reverse_order(self, enrolled):
        home, controller, _ = enrolled
        force_state(controller, OVERLOADED)
        home.run_for(2.0)
        enrollment = controller.enrollment("fitness")
        degraded = list(enrollment.applied_steps())
        assert len(degraded) >= 2
        force_state(controller, HEALTHY)
        home.run_for(6.0)
        assert enrollment.depth == 0
        restores = [a.evidence["step"]
                    for a in controller.ladder_actions("fitness")
                    if a.kind == "restore"]
        assert restores == degraded[::-1]

    def test_strain_resets_the_recovery_hold(self, enrolled):
        home, controller, _ = enrolled
        force_state(controller, OVERLOADED)
        home.run_for(1.0)
        assert controller.enrollment("fitness").depth >= 1
        # bouncing healthy <-> strained never accumulates recovery_hold_s
        # of continuous health, so nothing is restored
        before = len(controller.ladder_actions())
        for _ in range(3):
            force_state(controller, HEALTHY)
            home.run_for(0.5)
            force_state(controller, STRAINED)
            home.run_for(0.5)
        restores = [a for a in controller.ladder_actions()[before:]
                    if a.kind == "restore"]
        assert restores == []

    def test_full_fidelity_after_recovery(self, enrolled):
        from repro.slo.ladder import find_source

        home, controller, pipeline = enrolled
        source = find_source(pipeline)
        original = (source.camera.width, source.camera.height, source.fps)
        force_state(controller, OVERLOADED)
        home.run_for(4.0)  # deep enough to hit resolution, tier, fps, pause
        enrollment = controller.enrollment("fitness")
        assert enrollment.depth >= 4
        assert enrollment.paused
        force_state(controller, HEALTHY)
        home.run_for(10.0)
        assert enrollment.depth == 0
        assert not source.paused
        assert (source.camera.width, source.camera.height,
                source.fps) == original

    def test_stopped_pipeline_is_skipped(self, enrolled):
        home, controller, pipeline = enrolled
        pipeline.stop()
        force_state(controller, OVERLOADED)
        home.run_for(2.0)
        assert controller.ladder_actions() == []


class TestStatusAndMetrics:
    def test_status_shape(self, enrolled):
        home, controller, _ = enrolled
        home.run_for(1.0)
        status = home.snapshot()["slo"]
        entry = status["pipelines"]["fitness"]
        assert entry["state"] in (HEALTHY, STRAINED, OVERLOADED)
        assert entry["slo"] == SLO_T.as_dict()
        assert entry["depth"] == 0
        assert 0.0 <= entry["attainment"] <= 1.0
        assert status["actions"] == 0
        assert status["deploys_requested"] == 1
        assert status["enrolled"] == 1

    def test_attainment_matches_the_full_rescan_at_every_reading(
            self, home):
        """The section scores each bucket once, when it closes; at every
        monitor reading it equals :func:`repro.slo.attainment` over every
        completion since enrollment. Enrolled off the bucket grid, under
        an SLO some buckets miss."""
        home.enable_slo(config=CONFIG)
        home.run_for(0.3)
        tight = SLO(p99_latency_s=0.12, min_fps=9.0, window_s=2.0)
        pipeline = home.deploy_pipeline(fitness_pipeline_config(fps=10.0),
                                        slo=tight)
        enrolled_at = home.slo.enrollment("fitness").enrolled_at
        monitor = home.enable_monitoring()
        read, pairs = monitor.read, []

        def checked():
            snapshot = read()
            pairs.append((
                snapshot["slo"]["pipelines"]["fitness"]["attainment"],
                attainment(tight, pipeline.metrics.latency_events(),
                           start=enrolled_at, end=home.now),
            ))
            return snapshot

        monitor.read = checked
        home.run_for(8.0)
        assert len(pairs) == 16
        assert [section for section, _ in pairs] == \
            [reference for _, reference in pairs]
        assert 0.0 < pairs[-1][0] < 1.0

    def test_slo_status_requires_enable(self, home):
        """No controller, no ``slo`` section."""
        assert "slo" not in home.snapshot()

    def test_action_counters(self, enrolled):
        home, controller, _ = enrolled
        force_state(controller, OVERLOADED)
        home.run_for(2.0)
        force_state(controller, HEALTHY)
        home.run_for(6.0)
        kinds = [a.kind for a in controller.ladder_actions()]
        assert kinds.count("degrade") >= 2
        assert kinds.count("restore") == kinds.count("degrade")

    def test_monitor_probe_surfaces_the_controller(self, enrolled):
        home, controller, _ = enrolled
        monitor = home.enable_monitoring()
        force_state(controller, OVERLOADED)
        home.run_for(2.0)
        assert monitor.latest("slo", "enrolled") == 1
        assert monitor.latest("slo", "ladder_depth") >= 1
        assert monitor.latest("slo", "overloaded") == 1


class TestAuditedInvariants:
    def test_clean_run_has_no_violations(self, home):
        auditor = home.enable_audit()
        home.enable_slo(config=CONFIG)
        home.deploy_pipeline(fitness_pipeline_config(fps=10.0), slo=SLO_T)
        force_state(home.slo, OVERLOADED)
        home.run_for(2.0)
        force_state(home.slo, HEALTHY)
        home.run_for(6.0)
        auditor.check_now()
        assert auditor.violations == []

    def test_flapping_is_a_violation(self, enrolled):
        from repro.audit.auditor import InvariantAuditor

        home, controller, pipeline = enrolled
        # an explicitly constructed auditor (not enable_audit): this test
        # *wants* violations, which the REPRO_AUDIT teardown gate exempts
        # only for non-env auditors
        auditor = InvariantAuditor(home.kernel)
        home.actions.observer = auditor.watch_actions(home)
        enrollment = controller.enrollment("fitness")
        step = enrollment.ladder[0]
        # two actions closer than hysteresis_s: the auditor flags pacing
        for at in (1.0, 1.1):
            detail = step.apply() or "noop"
            enrollment.applied.append((0, step))
            controller._record(enrollment, at, "degrade", step, detail,
                               enrollment.depth - 1)
        assert any(v.invariant == "slo-ladder" for v in auditor.violations)
        # undo the hand-applied rungs so the home is left consistent (the
        # REPRO_AUDIT gate cross-checks applied rungs at teardown)
        while enrollment.applied:
            enrollment.applied.pop()
            step.revert()
