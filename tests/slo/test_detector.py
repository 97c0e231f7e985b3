"""Unit tests for overload classification and the live detector."""

import pytest

from repro.core.videopipe import VideoPipe
from repro.apps.fitness import (
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.slo import SLO
from repro.slo.detector import OVERLOAD_RATIO, OverloadDetector, classify_signals
from repro.slo.spec import HEALTHY, OVERLOADED, STRAINED

SLO_T = SLO(p99_latency_s=0.2, min_fps=5.0, window_s=2.0)
# thresholds: overload ratio 1.25, fps overload fraction 0.75, queue strain
# 1.0, queue overload 6.0, 3 samples before the ratios are trusted


def classify(**kwargs):
    defaults = dict(
        at=1.0, latency_ratio=0.5, fps_ratio=1.5, queue_pressure=0.0,
        samples=10, ever_completed=True, paused=False,
    )
    defaults.update(kwargs)
    return classify_signals(SLO_T, **defaults)


class TestClassifySignals:
    def test_all_targets_met_is_healthy(self):
        assert classify().state == HEALTHY

    def test_latency_overload(self):
        assert classify(latency_ratio=1.30).state == OVERLOADED

    def test_latency_strain_band_holds(self):
        # [1, OVERLOAD_RATIO) is the hold band
        assert classify(latency_ratio=1.10).state == STRAINED
        assert classify(latency_ratio=1.25).state == OVERLOADED

    def test_fps_overload_and_strain(self):
        assert classify(fps_ratio=0.5).state == OVERLOADED
        assert classify(fps_ratio=0.9).state == STRAINED

    def test_queue_pressure_alone(self):
        assert classify(queue_pressure=0.5).state == HEALTHY
        assert classify(queue_pressure=2.0).state == STRAINED
        assert classify(queue_pressure=7.0).state == OVERLOADED

    def test_cold_start_ratios_untrusted(self):
        # too few samples: the latency/fps ratios are noise, not signal
        reading = classify(latency_ratio=5.0, fps_ratio=0.1, samples=2,
                           ever_completed=False)
        assert reading.state == HEALTHY

    def test_stalled_pipeline_is_overloaded(self):
        # completed frames before, none in the whole window: fps 0 is real
        reading = classify(fps_ratio=0.0, samples=0, ever_completed=True)
        assert reading.state == OVERLOADED

    def test_never_completed_is_not_stalled(self):
        reading = classify(fps_ratio=0.0, samples=0, ever_completed=False)
        assert reading.state == HEALTHY

    def test_paused_judged_on_queue_only(self):
        # a paused pipeline emits nothing; fps/latency ratios are moot
        calm = classify(paused=True, fps_ratio=0.0, latency_ratio=0.0,
                        samples=0, queue_pressure=0.0)
        assert calm.state == HEALTHY
        assert calm.paused
        busy = classify(paused=True, fps_ratio=0.0, samples=0,
                        queue_pressure=8.0)
        assert busy.state == OVERLOADED
        held = classify(paused=True, fps_ratio=0.0, samples=0,
                        queue_pressure=2.0)
        assert held.state == STRAINED


class TestOverloadDetector:
    @pytest.fixture
    def home_and_pipeline(self, fitness_recognizer):
        home = VideoPipe.paper_testbed(seed=7)
        install_fitness_services(home, recognizer=fitness_recognizer)
        pipeline = home.deploy_pipeline(fitness_pipeline_config(fps=10.0))
        return home, pipeline

    def test_healthy_pipeline_reads_healthy(self, home_and_pipeline):
        home, pipeline = home_and_pipeline
        detector = OverloadDetector(home)
        home.run_for(4.0)
        reading = detector.reading(pipeline, SLO(p99_latency_s=1.0,
                                                 min_fps=5.0))
        assert reading.state == HEALTHY
        assert reading.samples > 0
        assert reading.at == home.now

    def test_enrollment_scales_the_window(self, home_and_pipeline):
        # a pipeline enrolled a moment ago must not be judged over the full
        # window (it could not have completed window_s * fps frames yet)
        home, pipeline = home_and_pipeline
        detector = OverloadDetector(home)
        home.run_for(0.5)
        reading = detector.reading(
            pipeline, SLO(p99_latency_s=1.0, min_fps=5.0, window_s=2.0),
            enrolled_at=home.now - 0.4,
        )
        assert reading.state == HEALTHY

    def test_queue_pressure_sums_called_services(self, home_and_pipeline):
        home, pipeline = home_and_pipeline
        detector = OverloadDetector(home)
        assert detector.queue_pressure(pipeline) == 0.0

    def test_tight_slo_reads_overloaded(self, home_and_pipeline):
        home, pipeline = home_and_pipeline
        detector = OverloadDetector(home)
        home.run_for(4.0)
        # an SLO no placement can meet: sub-millisecond tail
        reading = detector.reading(pipeline, SLO(p99_latency_s=0.0005,
                                                 min_fps=5.0))
        assert reading.state == OVERLOADED
        assert reading.latency_ratio > OVERLOAD_RATIO
