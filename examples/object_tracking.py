#!/usr/bin/env python3
"""Scene analytics: object detection + tracking (§4.3's service family).

A camera watches household objects drift around the room. The detection
module calls the object_detector service on real rendered RGB pixels; the
tracking module keeps identity state while the *stateless* object_tracker
service does the IoU association — every call ships the previous track
state with the request, the purest form of the paper's statelessness trick.

Run:  python examples/object_tracking.py
"""

from repro import VideoPipe
from repro.apps import scene_pipeline_config
from repro.devices import DeviceSpec
from repro.services import ObjectDetectionService, ObjectTrackingService

DURATION_S = 12.0


def build(seed=51, duration_s=DURATION_S):
    """A camera home running the detection + tracking pipeline: (home,
    pipeline)."""
    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    home.deploy_service(ObjectDetectionService(), "desktop")
    home.deploy_service(ObjectTrackingService(), "desktop")

    pipeline = home.deploy_pipeline(
        scene_pipeline_config(fps=10.0, duration_s=duration_s)
    )
    return home, pipeline


def main() -> None:
    home, pipeline = build()
    print("placement:")
    for name in pipeline.module_names():
        print(f"  {name:26s} -> {pipeline.device_of(name)}")

    home.run(until=DURATION_S + 1.0)

    tracker = pipeline.module_instance("object_tracking_module")
    print(f"\nframes analyzed: {pipeline.metrics.counter('frames_completed')}"
          f" at {pipeline.metrics.throughput_fps(DURATION_S + 1, 2.0):.1f} fps")

    print("\nidentities discovered:")
    for at, track_id, label in tracker.appeared:
        print(f"  t={at:5.2f}s  track #{track_id}: a {label} entered the scene")

    print("\nlive tracks at shutdown:")
    for track in tracker.tracks:
        x0, y0, x1, y1 = track["bbox"]
        print(f"  #{track['track_id']} {track['label']:8s}"
              f" at ({x0:5.1f},{y0:5.1f})  seen in {track['hits']} frames")


if __name__ == "__main__":
    main()
