"""The ``service_rejections`` counter: breaker-open rejections, attributed
to the calling pipeline and surfaced by the monitor's pipeline probe."""

import pytest

from repro.core.videopipe import VideoPipe
from repro.apps import train_activity_recognizer
from repro.apps.fitness import (
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.faults import FaultPlan
from repro.pipeline.placement import SINGLE_HOST


@pytest.fixture(scope="module")
def recognizer():
    return train_activity_recognizer(seed=1, train_subjects=4)


def deploy_remote_calls(home, recognizer):
    """Single-host placement on the phone: every pose/activity call is a
    remote RPC to the desktop — the path the circuit breaker guards."""
    install_fitness_services(home, recognizer=recognizer)
    return home.deploy_pipeline(
        fitness_pipeline_config(fps=10.0),
        strategy=SINGLE_HOST, host_device="phone",
        prefer_local_services=False,
    )


class TestServiceRejections:
    def test_partition_trips_the_breaker_and_counts(self, recognizer):
        home = VideoPipe.paper_testbed(seed=9)
        pipeline = deploy_remote_calls(home, recognizer)
        # the desktop (hosting pose+activity) drops off Wi-Fi for 4 s:
        # enough consecutive transport failures to open the breaker, then
        # enough paced calls to hit the open circuit
        home.enable_fault_injection(
            FaultPlan().partition(2.0, "desktop", heal_after=4.0))
        home.run(until=10.0)
        rejections = pipeline.metrics.counter("service_rejections")
        assert rejections > 0
        # rejections are a strict subset of the calls made
        calls = pipeline.metrics.counter("service_calls.pose_detector")
        assert 0 < rejections < calls

    def test_healthy_run_counts_nothing(self, recognizer):
        home = VideoPipe.paper_testbed(seed=9)
        pipeline = deploy_remote_calls(home, recognizer)
        home.run(until=4.0)
        assert pipeline.metrics.counter("service_rejections") == 0

    def test_pipeline_probe_surfaces_the_counter(self, recognizer):
        home = VideoPipe.paper_testbed(seed=9)
        pipeline = deploy_remote_calls(home, recognizer)
        home.enable_fault_injection(
            FaultPlan().partition(2.0, "desktop", heal_after=4.0))
        home.run(until=10.0)
        section = home.snapshot()["pipeline"][pipeline.name]
        assert section["service_rejections"] == pipeline.metrics.counter(
            "service_rejections")
        assert section["service_rejections"] > 0
