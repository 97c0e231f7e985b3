#!/usr/bin/env python3
"""The fall-detection pipeline (§4.3).

A camera watches an (synthetic) elderly resident; the pipeline runs pose
detection on the shared desktop service and a stateful fall-detector module
that alerts a caregiver through the IoT actuator when a rapid hip drop ends
in a horizontal posture. The same pipeline is then pointed at a squat
workout to show it does not false-alarm on exercise.

Run:  python examples/fall_detection.py
"""

from repro import VideoPipe
from repro.apps import (
    fall_pipeline_config,
    install_fitness_services,
    install_gesture_services,
)
from repro.devices import DeviceSpec


def build(motion, seed, duration_s=8.0, recognizer=None,
          gesture_recognizer=None):
    """A camera home running the fall detector on *motion*: (home, pipeline,
    gesture services)."""
    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    # provides the shared pose detector
    install_fitness_services(home, recognizer=recognizer)
    # provides the IoT actuator
    gesture = install_gesture_services(home, recognizer=gesture_recognizer)

    pipeline = home.deploy_pipeline(
        fall_pipeline_config(fps=10.0, duration_s=duration_s, motion=motion)
    )
    return home, pipeline, gesture


def run_scenario(motion: str, seed: int) -> None:
    home, pipeline, gesture = build(motion, seed)
    home.run(until=9.0)

    falls = pipeline.metrics.counter("falls_detected")
    alert = gesture.fleet.states["caregiver_alert"]
    print(f"scenario {motion!r}: falls detected = {falls},"
          f" caregiver alert = {'RAISED' if alert else 'quiet'}")
    if falls:
        detector = pipeline.module_instance("fall_detector_module")
        print(f"  first detection at t={detector.falls_detected[0]:.2f}s"
              " (the synthetic fall completes at t≈0.9s)")


def main() -> None:
    run_scenario("fall", seed=31)  # must alert
    run_scenario("squat", seed=32)  # must stay quiet
    run_scenario("stand", seed=33)  # must stay quiet


if __name__ == "__main__":
    main()
