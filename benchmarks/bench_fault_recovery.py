"""R1 — fault injection: MTTR and the throughput dip under a device crash.

Not a paper table — the robustness counterpart to E2: the desktop hosting
the pose/activity services crashes mid-run and the §7 loop (heartbeat
detection → evacuation → standby laptop) brings the stream back. Reported
per detection period: time-to-detect, MTTR as the detector measured it, and
throughput pre-fault / during the outage / post-recovery.
"""

from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
)
from repro.core import VideoPipe
from repro.faults import FaultPlan
from repro.metrics import format_table
from repro.services import ActivityClassifierService, PoseDetectorService

from .conftest import FAST

CRASH_AT = 5.0
DOWN_FOR = 6.0
DURATION_S = 16.0 if FAST else 25.0
DETECTION_PERIODS = (0.25, 0.5, 1.0)


def run_crash_scenario(recognizer, period_s, seed=11, fps=10.0):
    """One crash/recover run; returns the snapshot's ``failures`` section
    and the pipeline's ``recovery_migrations``, plus throughput in the
    pre/during/post windows and the time-to-detect."""
    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device("laptop")
    services = install_fitness_services(home, recognizer=recognizer)
    home.deploy_service(PoseDetectorService(), "laptop")
    home.deploy_service(ActivityClassifierService(recognizer), "laptop")
    config = fitness_pipeline_config(fps=fps, duration_s=DURATION_S)
    config.module("pose_detector_module").device = "desktop"
    config.module("activity_detector_module").device = "desktop"
    pipeline = FitnessApp(home, services).deploy(config)

    home.enable_failure_detection(
        home_device="tv", period_s=period_s, miss_threshold=2)
    home.enable_self_healing(pipeline)
    home.enable_fault_injection(
        FaultPlan().device_crash(CRASH_AT, "desktop", down_for=DOWN_FOR))

    def frames():
        return pipeline.metrics.counter("frames_completed")

    home.run(until=CRASH_AT)
    pre = frames()
    home.run(until=CRASH_AT + DOWN_FOR)
    during = frames()
    home.run(until=DURATION_S)
    post = frames()

    down_events = [a for a in home.actions
                   if a.controller == "detector" and a.kind == "down"]
    snapshot = home.snapshot()
    report = dict(snapshot["failures"], recovery_migrations=snapshot[
        "pipeline"][pipeline.name]["recovery_migrations"])
    report["time_to_detect_s"] = (
        down_events[0].at - CRASH_AT if down_events else float("nan"))
    report["pre_fps"] = pre / CRASH_AT
    report["during_fps"] = (during - pre) / DOWN_FOR
    report["post_fps"] = (post - during) / (DURATION_S - CRASH_AT - DOWN_FOR)
    return report


def test_fault_recovery_mttr_and_throughput_dip(benchmark, fitness_recognizer):
    reports = {}

    def run():
        for period in DETECTION_PERIODS:
            reports[period] = run_crash_scenario(fitness_recognizer, period)
        return reports

    benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["Probe period (s)", "Detect (s)", "MTTR (s)", "Pre FPS",
         "Outage FPS", "Post FPS", "Migrations"],
        [[period,
          reports[period]["time_to_detect_s"],
          reports[period]["mttr_mean_s"],
          reports[period]["pre_fps"],
          reports[period]["during_fps"],
          reports[period]["post_fps"],
          reports[period]["recovery_migrations"]]
         for period in DETECTION_PERIODS],
        title="R1 — crash recovery vs detection period",
    ))

    for period, report in reports.items():
        benchmark.extra_info[f"mttr_{period}s"] = round(
            report["mttr_mean_s"], 2)
        benchmark.extra_info[f"detect_{period}s"] = round(
            report["time_to_detect_s"], 2)
        benchmark.extra_info[f"post_fps_{period}s"] = round(
            report["post_fps"], 2)

    if FAST:
        return  # smoke mode: shape assertions need the full window
    for period, report in reports.items():
        # the loop closed: fault seen, modules evacuated, stream recovered
        assert report["detections"] == 1, period
        assert report["recoveries"] == 1, period
        assert report["recovery_migrations"] == 2, period
        # detection bounded by ~threshold probe periods (+ timeout slack)
        assert report["time_to_detect_s"] < 3 * period + 0.5, period
        # MTTR is dominated by the injected outage length, as it should be
        assert DOWN_FOR - 1.0 < report["mttr_mean_s"] < DOWN_FOR + 2 * period + 1.0, period
        # throughput dips during the outage and recovers to >= 70% after
        assert report["during_fps"] < report["pre_fps"], period
        assert report["post_fps"] >= 0.7 * report["pre_fps"], period
    # a faster probe period detects faster
    assert (reports[0.25]["time_to_detect_s"]
            <= reports[1.0]["time_to_detect_s"])
