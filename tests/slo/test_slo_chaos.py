"""Chaos: the SLO controller under device crashes — degrade, don't flap.

The acceptance scenario for the guardian's robustness: the device hosting
the heavy compute dies mid-run. The failure stack (detection +
self-healing) evacuates the stranded modules while the SLO controller
sheds load down the ladder; the two loops must compose without ladder
flapping, the auditor's pacing/monotonicity invariants must hold
throughout, and the whole story must be deterministic under the seed.
"""

import pytest

from repro.core.videopipe import VideoPipe
from repro.apps.fitness import (
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.pipeline.placement import COLOCATED
from repro.faults import FaultPlan
from repro.services import ActivityClassifierService, PoseDetectorService
from repro.slo import SLO, SLOConfig

# min_fps close to the 10 fps offered rate: the crash-time delivery dip
# (failover + evacuation in flight) must read as overload, not a blip
SLO_T = SLO(p99_latency_s=0.25, min_fps=8.0, window_s=2.0)
CONFIG = SLOConfig(check_interval_s=0.25, hysteresis_s=0.75,
                   recovery_hold_s=1.0, use_optimizer=False)
CRASH_AT, DOWN_FOR, END = 4.0, 6.0, 24.0


def build_crash_scenario(recognizer, seed, audit=False):
    """The hardened fitness home with the desktop crash scheduled."""
    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device("laptop")
    install_fitness_services(home, recognizer=recognizer)
    home.deploy_service(PoseDetectorService(), "laptop")
    home.deploy_service(ActivityClassifierService(recognizer), "laptop")
    if audit:
        home.enable_audit()
    home.enable_autoscaling()
    home.enable_slo(config=CONFIG)
    config = fitness_pipeline_config(fps=10.0)
    config.module("pose_detector_module").device = "desktop"
    config.module("activity_detector_module").device = "desktop"
    pipeline = home.deploy_pipeline(config, strategy=COLOCATED,
                                    default_device="phone", slo=SLO_T)
    home.enable_failure_detection(home_device="tv", period_s=0.25,
                                  miss_threshold=2)
    home.enable_self_healing(pipeline)
    home.enable_fault_injection(
        FaultPlan().device_crash(CRASH_AT, "desktop", down_for=DOWN_FOR))
    return home, pipeline


@pytest.mark.chaos
class TestCrashUnderSLO:
    def test_degrades_without_flapping_and_recovers(self, fitness_recognizer):
        home, pipeline = build_crash_scenario(fitness_recognizer, seed=11,
                                              audit=True)
        home.run(until=END)
        controller = home.slo
        enrollment = controller.enrollment("fitness")

        # the crash drove the pipeline off its SLO; the ladder acted
        degrades = [a for a in controller.ladder_actions()
                    if a.kind == "degrade"]
        assert degrades, "controller never degraded through the crash"
        assert all(CRASH_AT <= a.at for a in degrades)

        # no flapping: every pair of consecutive actions on the pipeline is
        # spaced at least hysteresis_s apart, whichever direction
        actions = controller.ladder_actions("fitness")
        times = [a.at for a in actions]
        spacing = [b - a for a, b in zip(times, times[1:])]
        assert all(s >= CONFIG.hysteresis_s - 1e-9 for s in spacing)

        # every action moved depth by exactly one rung (monotone ladder)
        for action in actions:
            evidence = action.evidence
            assert abs(evidence["depth_after"] - evidence["depth_before"]) == 1

        # after the device returns and load clears, the ladder is unwound
        assert enrollment.depth == 0
        assert pipeline.metrics.counter("frames_completed") > 50

        # the auditor watched every action live: no invariant broke
        home.auditor.check_now()
        assert home.auditor.violations == []

    def test_crash_scenario_is_deterministic(self, fitness_recognizer,
                                             assert_deterministic):
        def scenario(seed):
            home, pipeline = build_crash_scenario(fitness_recognizer, seed)

            def run_fn():
                home.run(until=END)
                controller = home.slo
                return (
                    pipeline.metrics.counter("frames_completed"),
                    [(a.at, a.evidence["step"], a.kind)
                     for a in controller.ladder_actions()],
                )

            return home, run_fn

        assert_deterministic(scenario, seed=11, name="slo-crash")
