#!/usr/bin/env python3
"""Multi-camera scene fusion: three cameras, one home, fused world tracks.

Three wall-mounted cameras watch the same two people walk paths that cross
in the middle of the room. Each camera's branch estimates poses (the
scene_pose_estimator service), tracks locally with the IoU tracker and
computes limb-ratio re-ID embeddings; a single fusion module consumes all
three branches through a fan-in DAG and maintains the camera → room → home
scene graph with per-track provenance. At the crossing the per-camera
trackers genuinely lose identities — cross-camera re-ID is what keeps the
fused tracks stable.

Run:  python examples/multi_camera_scene.py
"""

from repro import VideoPipe
from repro.apps import install_scene_services, multi_camera_pipeline_config
from repro.devices import DeviceSpec
from repro.vision import fusion_accuracy

DURATION_S = 8.0
FPS = 8.0


def build(seed=23, duration_s=DURATION_S):
    """The three-camera home running the fan-in fusion pipeline: (home,
    pipeline)."""
    home = VideoPipe.paper_testbed(seed=seed)
    home.add_device(DeviceSpec(name="camera", kind="phone", cpu_factor=2.5,
                               cores=8, supports_containers=False))
    install_scene_services(home, "desktop")

    pipeline = home.deploy_pipeline(
        multi_camera_pipeline_config(fps=FPS, duration_s=duration_s)
    )
    return home, pipeline


def main() -> None:
    home, pipeline = build()
    print("placement:")
    for name in pipeline.module_names():
        print(f"  {name:22s} -> {pipeline.device_of(name)}")

    home.run(until=DURATION_S + 1.0)

    fusion = pipeline.module_instance("scene_fusion_module")
    print(f"\nframes fused: {pipeline.metrics.counter('frames_completed')}"
          f" across {len(pipeline.config.modules) - 2} cameras")

    graph = fusion.scene_graph()
    print("\nscene graph (camera -> room -> home):")
    for room, cameras in graph["home"].items():
        print(f"  {room}:")
        for camera, members in cameras.items():
            print(f"    {camera}: local tracks {members}")

    print("\nfused world tracks:")
    for track in graph["tracks"]:
        x, z = track["world"]
        provenance = ", ".join(f"{cam}#{tid}"
                               for cam, tid in track["provenance"])
        print(f"  fused #{track['fused_id']} at ({x:4.1f}m, {z:4.1f}m)"
              f"  rooms={track['rooms']}  from [{provenance}]")

    accuracy = fusion_accuracy(fusion.history)
    print(f"\nfusion accuracy vs ground truth:"
          f" precision={accuracy['precision']:.3f}"
          f" recall={accuracy['recall']:.3f}"
          f" id_switches={accuracy['id_switches']}")


if __name__ == "__main__":
    main()
