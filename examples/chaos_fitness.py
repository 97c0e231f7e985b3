#!/usr/bin/env python3
"""Chaos-testing the fitness pipeline: crash, detect, evacuate, recover.

"Edge devices fail" (§7) — this example makes that concrete. The desktop
hosting the pose and activity services dies mid-workout; the heartbeat
failure detector notices within a second, the orchestrator evacuates the
stranded modules onto a standby laptop, and the stream recovers on its own.
The printed report shows the fault timeline, the MTTR the detector
measured, and the throughput before, during, and after the outage.

Run:  python examples/chaos_fitness.py
"""

from repro import FaultPlan, VideoPipe
from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    install_fitness_services,
    train_activity_recognizer,
)
from repro.services import ActivityClassifierService, PoseDetectorService

CRASH_AT = 5.0
DOWN_FOR = 6.0
DURATION_S = 20.0


def main() -> None:
    home = VideoPipe.paper_testbed(seed=33)
    home.add_device("laptop")  # the standby compute node

    recognizer = train_activity_recognizer(seed=33)
    services = install_fitness_services(home, recognizer=recognizer)
    # standby replicas so there is somewhere to fail over to
    home.deploy_service(PoseDetectorService(), "laptop")
    home.deploy_service(ActivityClassifierService(recognizer), "laptop")

    config = fitness_pipeline_config(fps=10.0)
    config.module("pose_detector_module").device = "desktop"
    config.module("activity_detector_module").device = "desktop"
    pipeline = FitnessApp(home, services).deploy(config)

    # close the §7 loop: heartbeats -> detection -> evacuation
    home.enable_failure_detection(
        home_device="tv", period_s=0.25, miss_threshold=2)
    home.enable_self_healing(pipeline)
    injector = home.enable_fault_injection(
        FaultPlan().device_crash(CRASH_AT, "desktop", down_for=DOWN_FOR))

    def frames():
        return pipeline.metrics.counter("frames_completed")

    home.run(until=CRASH_AT)
    pre = frames()
    pre_rate = pre / CRASH_AT
    home.run(until=CRASH_AT + DOWN_FOR)
    during = frames()
    home.run(until=DURATION_S)
    post_rate = (frames() - during) / (DURATION_S - CRASH_AT - DOWN_FOR)

    print("fault timeline:")
    for at, kind, target in injector.trace:
        print(f"  t={at:5.2f}s  {kind} -> {target}")

    print("\ndetector events:")
    for action in home.actions:
        if action.controller == "detector":
            mttr = action.evidence.get("mttr_s")
            mttr = f"  (MTTR {mttr:.2f}s)" if mttr else ""
            print(f"  t={action.at:5.2f}s  {action.target} {action.kind}{mttr}")

    print("\norchestrator actions:")
    for action in home.actions:
        if action.controller == "orchestrator":
            print(f"  t={action.at:5.2f}s  [{action.kind}:{action.target}]"
                  f" {action.reason}")

    print("\nwhere the compute modules live now:")
    for name in ("pose_detector_module", "activity_detector_module"):
        print(f"  {name}: {pipeline.device_of(name)}")

    snapshot = home.snapshot()
    failures = snapshot["failures"]
    migrated = snapshot["pipeline"][pipeline.name]["recovery_migrations"]
    print(f"\nMTTR: {failures['mttr_mean_s']:.2f}s over"
          f" {failures['recoveries']} recovery"
          f" ({migrated} modules migrated)")
    print(f"throughput: {pre_rate:.1f} fps pre-fault,"
          f" {(during - pre) / DOWN_FOR:.1f} fps during the outage,"
          f" {post_rate:.1f} fps post-recovery"
          f" ({post_rate / pre_rate:.0%} of pre-fault)")


if __name__ == "__main__":
    main()
