#!/usr/bin/env python3
"""Gesture-based IoT control (§4.2) sharing services with the fitness app.

Two pipelines run at once: the living-room fitness session and a
gesture-control camera. Both call the **same** pose detector service —
§5.2.2's service-sharing scenario — while the gesture pipeline's classifier
maps 'clap' to the living-room light and 'wave' to the doorbell camera.

Run:  python examples/gesture_control.py
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

DURATION_S = 20.0


def build(seed=21, duration_s=DURATION_S, recognizer=None,
          gesture_recognizer=None):
    """The testbed plus a gesture camera, running both pipelines:
    (home, fitness pipeline, gesture pipeline, gesture services)."""
    home = VideoPipe.paper_testbed(seed=seed)
    # a second camera (another phone) watches the room for gestures
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))

    fitness = install_fitness_services(home, recognizer=recognizer)
    # reuses the pose service!
    gesture = install_gesture_services(home, recognizer=gesture_recognizer)

    app = FitnessApp(home, fitness)
    fitness_pipe = app.deploy(
        fitness_pipeline_config(fps=10.0, duration_s=duration_s)
    )
    gesture_pipe = home.deploy_pipeline(
        gesture_pipeline_config(fps=10.0, duration_s=duration_s, motion="clap")
    )
    return home, fitness_pipe, gesture_pipe, gesture


def main() -> None:
    home, fitness_pipe, gesture_pipe, gesture = build()
    home.run(until=DURATION_S + 1.0)

    f_fit = fitness_pipe.metrics.throughput_fps(DURATION_S + 1.0, warmup_s=2.0)
    f_gest = gesture_pipe.metrics.throughput_fps(DURATION_S + 1.0, warmup_s=2.0)
    print(f"fitness pipeline: {f_fit:.2f} fps; gesture pipeline: {f_gest:.2f} fps")

    pose_host = home.registry.any_host("pose_detector")
    print(f"shared pose detector served {pose_host.local_calls} calls"
          f" ({pose_host.utilization():.0%} busy)")

    print("\nIoT command log (clap -> living_room_light):")
    for event in gesture.fleet.log:
        state = "ON" if event.new_state else "OFF"
        print(f"  t={event.at:6.2f}s  {event.target} -> {state}")
    print(f"\nfinal light state: "
          f"{'ON' if gesture.fleet.states['living_room_light'] else 'OFF'}")


if __name__ == "__main__":
    main()
