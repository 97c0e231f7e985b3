"""Unit tests for the degradation ladder's rungs and assembly."""

import pytest

from repro.core.videopipe import VideoPipe
from repro.apps.fitness import (
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.slo import SLO, SLOConfig, find_source
from repro.slo.ladder import (
    FpsStep,
    PauseStep,
    ResolutionStep,
    ScaleUpStep,
    TierStep,
    build_ladder,
)


class FakeCamera:
    def __init__(self, width=640, height=480):
        self.width = width
        self.height = height

    def set_resolution(self, width, height):
        self.width, self.height = width, height


class FakeSource:
    def __init__(self, fps=10.0):
        self.fps = fps
        self.paused = False

    def set_fps(self, fps):
        self.fps = fps

    def set_paused(self, paused):
        self.paused = paused


class TestResolutionStep:
    def test_apply_shrinks_and_revert_restores(self):
        camera = FakeCamera()
        step = ResolutionStep(camera, factor=0.7)
        detail = step.apply()
        assert detail == "resolution 640x480 -> 448x336"
        assert (camera.width, camera.height) == (448, 336)
        assert step.revert() == "resolution -> 640x480"
        assert (camera.width, camera.height) == (640, 480)

    def test_no_camera_is_not_actionable(self):
        assert ResolutionStep(None, factor=0.7).apply() is None

    def test_floor_resolution_is_not_actionable(self):
        camera = FakeCamera(16, 16)
        assert ResolutionStep(camera, factor=0.7).apply() is None
        assert (camera.width, camera.height) == (16, 16)

    def test_revert_without_apply_keeps(self):
        assert ResolutionStep(FakeCamera(), 0.7).revert() == "resolution kept"


class TestFpsStep:
    def test_apply_lowers_and_revert_restores(self):
        source = FakeSource(fps=10.0)
        step = FpsStep(source, factor=0.7, floor_fps=4.0)
        assert step.apply() == "fps 10.0 -> 7.0"
        assert source.fps == pytest.approx(7.0)
        assert step.revert() == "fps -> 10.0"
        assert source.fps == 10.0

    def test_floor_is_respected(self):
        source = FakeSource(fps=5.0)
        step = FpsStep(source, factor=0.7, floor_fps=4.0)
        step.apply()
        assert source.fps == 4.0  # 3.5 floored at min_fps

    def test_at_floor_is_not_actionable(self):
        source = FakeSource(fps=4.0)
        assert FpsStep(source, factor=0.7, floor_fps=4.0).apply() is None

    def test_no_source_is_not_actionable(self):
        assert FpsStep(None, 0.7, 1.0).apply() is None


class TestPauseStep:
    def test_apply_pauses_and_revert_resumes(self):
        source = FakeSource()
        step = PauseStep(source)
        assert step.apply() == "paused"
        assert source.paused
        assert step.revert() == "resumed"
        assert not source.paused

    def test_already_paused_is_not_actionable(self):
        source = FakeSource()
        source.paused = True
        assert PauseStep(source).apply() is None


@pytest.fixture
def home_and_pipeline(fitness_recognizer):
    home = VideoPipe.paper_testbed(seed=7)
    install_fitness_services(home, recognizer=fitness_recognizer)
    pipeline = home.deploy_pipeline(fitness_pipeline_config(fps=10.0))
    return home, pipeline


class TestScaleUpStep:
    def test_without_autoscaler_not_actionable(self, home_and_pipeline):
        home, _ = home_and_pipeline
        assert ScaleUpStep(home, ["pose_detector"]).apply() is None

    def test_apply_adds_and_revert_retires_a_replica(self, home_and_pipeline):
        home, _ = home_and_pipeline
        home.enable_autoscaling()
        host = home.registry.hosts_of("pose_detector")[0]
        before = host.replicas
        step = ScaleUpStep(home, ["pose_detector"])
        detail = step.apply()
        assert detail is not None and "replicas" in detail
        assert host.replicas == before + 1
        home.run_for(1.5)  # let the scaler's per-host cooldown elapse
        step.revert()
        assert host.replicas == before

    def test_revert_under_cooldown_is_refused_gracefully(
            self, home_and_pipeline):
        home, _ = home_and_pipeline
        home.enable_autoscaling()
        host = home.registry.hosts_of("pose_detector")[0]
        step = ScaleUpStep(home, ["pose_detector"])
        step.apply()
        # same instant: the scaler's cooldown refuses the retire, the step
        # reports it rather than raising, and the extra replica stays
        assert "refused" in step.revert()
        assert host.replicas == 2

    def test_unknown_service_not_actionable(self, home_and_pipeline):
        home, _ = home_and_pipeline
        home.enable_autoscaling()
        assert ScaleUpStep(home, ["no_such_service"]).apply() is None


class TestTierStep:
    def test_apply_cheapens_and_revert_restores(self, home_and_pipeline):
        home, _ = home_and_pipeline
        host = home.registry.hosts_of("pose_detector")[0]
        original = host.service.reference_cost_s
        step = TierStep(home, ("pose_detector",), factor=0.6)
        detail = step.apply()
        assert detail is not None and detail.startswith("tier down")
        assert host.service.reference_cost_s == pytest.approx(0.6 * original)
        step.revert()
        assert host.service.reference_cost_s == original

    def test_unknown_service_not_actionable(self, home_and_pipeline):
        home, _ = home_and_pipeline
        assert TierStep(home, ("no_such",), factor=0.6).apply() is None


class TestFindSourceAndBuild:
    def test_find_source_returns_the_paced_source(self, home_and_pipeline):
        _, pipeline = home_and_pipeline
        source = find_source(pipeline)
        assert source is not None
        assert source.fps == 10.0
        assert hasattr(source, "camera")

    def test_default_ladder_order(self, home_and_pipeline):
        home, pipeline = home_and_pipeline
        steps = build_ladder(home, pipeline, SLO(), SLOConfig())
        assert [s.name for s in steps] == [
            "scale_up", "replan", "resolution", "resolution",
            "service_tier", "fps", "fps", "pause",
        ]

    def test_config_gates_the_rungs(self, home_and_pipeline):
        home, pipeline = home_and_pipeline
        steps = build_ladder(home, pipeline, SLO(), SLOConfig(
            max_extra_replicas=0, use_optimizer=False, resolution_steps=1,
            tier_factor=1.0, fps_steps=0, allow_pause=False,
        ))
        assert [s.name for s in steps] == ["resolution"]

    def test_tier_rung_needs_a_called_service(self, home_and_pipeline):
        home, pipeline = home_and_pipeline
        steps = build_ladder(home, pipeline, SLO(), SLOConfig(
            max_extra_replicas=0, use_optimizer=False, resolution_steps=0,
            tier_services=("not_called",), fps_steps=0, allow_pause=False,
        ))
        assert steps == []
