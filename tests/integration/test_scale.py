"""Integration: many pipelines, one home — the framework under load.

The paper deploys two pipelines; a framework release should not fall over
at six. Six camera feeds share one pose-detector host with autoscaling
enabled; the home must stay correct (no errors, no leaks, fair service) and
aggregate throughput must track the scaled capacity.
"""

import pytest

from repro.apps import (
    gesture_pipeline_config,
    install_fitness_services,
    install_gesture_services,
    train_gesture_recognizer,
)
from repro.core import VideoPipe
from repro.devices import DeviceSpec
from repro.services import ScalingPolicy

N_PIPELINES = 6
DURATION_S = 15.0


@pytest.fixture(scope="module")
def big_home(fitness_recognizer):
    gesture_recognizer = train_gesture_recognizer(seed=1, train_subjects=2)
    home = VideoPipe.paper_testbed(seed=23)
    for i in range(N_PIPELINES):
        home.add_device(DeviceSpec(name=f"cam{i}", kind="phone",
                                   cpu_factor=2.5, cores=8))
    install_fitness_services(home, recognizer=fitness_recognizer)
    install_gesture_services(home, recognizer=gesture_recognizer)
    home.enable_autoscaling(ScalingPolicy(
        check_interval_s=0.25, queue_threshold=0.75, max_replicas=6,
    ))
    pipelines = []
    for i in range(N_PIPELINES):
        config = gesture_pipeline_config(
            name=f"gesture-{i}", fps=15.0, duration_s=DURATION_S,
            base_port=6000 + 10 * i, source_device=f"cam{i}",
        )
        # unique module names per pipeline instance
        for module in config.modules:
            module.name = f"{module.name}_{i}"
        config.modules[0].next_modules = [f"gesture_pose_module_{i}"]
        config.modules[1].next_modules = [f"gesture_classifier_module_{i}"]
        config.modules[2].next_modules = [f"gesture_control_module_{i}"]
        config.source = f"gesture_video_module_{i}"
        pipelines.append(home.deploy_pipeline(config))
    home.run(until=DURATION_S + 1.0)
    return home, pipelines


class TestManyPipelines:
    def test_all_pipelines_progress(self, big_home):
        _, pipelines = big_home
        for pipeline in pipelines:
            fps = pipeline.metrics.throughput_fps(DURATION_S + 1.0,
                                                  warmup_s=3.0)
            assert fps > 2.0, pipeline.name

    def test_pose_service_scaled_up(self, big_home):
        home, _ = big_home
        pose = home.registry.any_host("pose_detector")
        assert pose.replicas >= 3  # six feeds cannot run on one worker
        assert home.autoscaler.actions

    def test_aggregate_throughput_tracks_capacity(self, big_home):
        home, pipelines = big_home
        total = sum(
            p.metrics.throughput_fps(DURATION_S + 1.0, warmup_s=3.0)
            for p in pipelines
        )
        pose = home.registry.any_host("pose_detector")
        capacity = pose.replicas / 0.053  # replicas x (1 / pose service time)
        assert total < capacity * 1.1
        assert total > 25.0  # far beyond a single worker's ~19 req/s

    def test_fair_sharing(self, big_home):
        _, pipelines = big_home
        rates = [p.metrics.throughput_fps(DURATION_S + 1.0, warmup_s=3.0)
                 for p in pipelines]
        assert min(rates) > max(rates) * 0.6

    def test_no_errors_no_leaks(self, big_home):
        home, pipelines = big_home
        for pipeline in pipelines:
            for name in pipeline.module_names():
                assert pipeline.module(name).errors == [], name
        home.run(until=DURATION_S + 2.0)
        for device in home.devices.values():
            assert len(device.frame_store) <= 1, device.name
