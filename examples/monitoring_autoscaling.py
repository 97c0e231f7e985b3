#!/usr/bin/env python3
"""Operating VideoPipe: monitoring, alarms, and automatic scaling (§7).

The paper's future-work list — "automatic deployment, scheduling and
monitoring components … scale up services automatically based on workload"
— implemented and demonstrated: two pipelines overload the shared pose
service, the monitor's alarm catches the sustained queue, and the
autoscaler adds a replica that restores throughput.

Run:  python examples/monitoring_autoscaling.py
"""

from repro import VideoPipe
from repro.apps import (
    FitnessApp,
    fitness_pipeline_config,
    gesture_pipeline_config,
    install_fitness_services,
    install_gesture_services,
)
from repro.devices import DeviceSpec
from repro.monitor import AlarmRule
from repro.services import ScalingPolicy

DURATION_S = 24.0


def main() -> None:
    home = VideoPipe.paper_testbed(seed=41)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))

    fitness = install_fitness_services(home)
    install_gesture_services(home)

    # 1. monitoring: sample the home's snapshot (every device, service and
    #    pipeline) twice a second
    monitor = home.enable_monitoring()
    monitor.add_rule(AlarmRule(
        name="pose-overload",
        probe="service/pose_detector@desktop",
        metric="utilization",
        predicate=lambda busy: busy > 0.8,
        for_samples=4,
    ))

    # 2. autoscaling: grow a service when requests keep queueing
    home.enable_autoscaling(ScalingPolicy(
        check_interval_s=0.5, queue_threshold=0.75, max_replicas=2,
    ))

    # 3. overload: both pipelines at a 30 FPS source share one pose worker
    app = FitnessApp(home, fitness)
    p_fit = app.deploy(fitness_pipeline_config(fps=30.0, duration_s=DURATION_S))
    p_gest = home.deploy_pipeline(
        gesture_pipeline_config(fps=30.0, duration_s=DURATION_S)
    )

    home.run(until=DURATION_S + 1.0)

    print("alarms fired:")
    for alarm in monitor.alarms_for("pose-overload")[:3]:
        print(f"  t={alarm.at:5.2f}s  {alarm.probe} {alarm.metric}="
              f"{alarm.value:.0f}")

    print("\nautoscaler decisions:")
    for action in home.actions:
        if action.controller != "autoscaler":
            continue
        evidence = action.evidence
        print(f"  t={action.at:5.2f}s  {action.target}: "
              f"{evidence['from_replicas']} -> {evidence['to_replicas']}"
              f" replicas (avg queue {evidence['avg_queue']:.1f})")

    pose = home.registry.any_host("pose_detector")
    print(f"\npose service: {pose.replicas} replicas, "
          f"{pose.local_calls} calls served, {pose.utilization():.0%} busy")

    for name, pipeline in (("fitness", p_fit), ("gesture", p_gest)):
        fps = pipeline.metrics.throughput_fps(DURATION_S + 1.0, warmup_s=2.0)
        live = monitor.rate(f"pipeline/{pipeline.name}", "frames_completed",
                            window_s=5.0)
        print(f"{name}: {fps:.2f} fps overall, {live:.2f} fps in the last 5 s"
              " (post-scaling)")

    cpu = monitor.latest("device/desktop", "cpu_utilization")
    print(f"desktop CPU utilization: {cpu:.0%}")


if __name__ == "__main__":
    main()
