"""A5 — §7 ablation: heuristic co-location vs cost-model scheduling.

The paper's deployment follows services by name. When a service runs on
*several* devices of different speeds, that heuristic can land on a slow
replica; the §7 "scheduling" component, ``repro.pipeline.plan_optimized``,
searches placements against a cost model instead. This benchmark measures
the end-to-end difference on a home where the pose detector is replicated
on a slow laptop ("athena") and a fast desktop ("zeus").
"""

from repro import Module, VideoPipe, register_module
from repro.devices import DeviceSpec
from repro.metrics import format_table
from repro.pipeline import (
    ModuleConfig,
    OptimizerConfig,
    PipelineConfig,
    plan_optimized,
)
from repro.services import PoseDetectorService

from .conftest import FAST

DURATION_S = 6.0 if FAST else 20.0
WARMUP_S = 2.0


@register_module("./SchedBenchSink.js")
class SinkModule(Module):
    """Terminal module: account the frame, free it, refill the credit."""

    def event_received(self, ctx, event):
        payload = event.payload
        if "frame" in payload:
            ctx.release(payload["frame"])
        ctx.finish(payload["frame_id"])


def pipeline_config() -> PipelineConfig:
    return PipelineConfig(
        name="sched-bench",
        modules=[
            ModuleConfig(name="cam_module", include="./VideoStreamingModule.js",
                         endpoint="bind#tcp://*:6400", device="cam",
                         next_modules=["pose_module"],
                         params={"fps": 30.0, "duration_s": DURATION_S}),
            ModuleConfig(name="pose_module", include="./PoseDetectorModule.js",
                         services=["pose_detector"],
                         endpoint="bind#tcp://*:6401",
                         next_modules=["sink_module"]),
            ModuleConfig(name="sink_module", include="./SchedBenchSink.js",
                         endpoint="bind#tcp://*:6402", device="cam",
                         next_modules=[]),
        ],
        source="cam_module",
    )


def build_home(seed=29) -> VideoPipe:
    home = VideoPipe(seed=seed)
    home.add_device(DeviceSpec(name="athena", kind="laptop", cpu_factor=4.0,
                               cores=4, supports_containers=True))
    home.add_device(DeviceSpec(name="zeus", kind="desktop", cpu_factor=1.0,
                               cores=8, supports_containers=True))
    home.add_device(DeviceSpec(name="cam", kind="phone", cpu_factor=2.5,
                               cores=8))
    for device in ("athena", "zeus"):
        home.deploy_service(PoseDetectorService(), device)
    return home


def edge_bytes(src_device: str, dst_device: str) -> int:
    """Payload hint for the search: only the camera's out-edge carries
    full frames; downstream edges carry keypoints. Without it a remote pose
    call looks cheaper than shipping a 42 kB frame on *every* edge, and the
    search keeps ``pose_module`` on the camera."""
    return 42_000 if src_device == "cam" else 600


SEARCHED = "optimized + per-edge byte hints"


def run_placement(searched: bool):
    home = build_home()
    placement = None  # deploy_pipeline then places by the heuristic
    if searched:
        placement = plan_optimized(
            pipeline_config(), home.devices, home.registry, home.topology,
            default_device="cam",
            optimizer=OptimizerConfig(edge_bytes=edge_bytes),
        )
    pipeline = home.deploy_pipeline(pipeline_config(), default_device="cam",
                                    placement=placement)
    home.run(until=DURATION_S + 1.0)
    return {
        "pose_device": pipeline.device_of("pose_module"),
        "fps": pipeline.metrics.throughput_fps(DURATION_S + 1.0, WARMUP_S),
        "latency_ms": pipeline.metrics.total_latency_summary().mean * 1e3,
    }


def test_cost_scheduler_beats_heuristic_on_replicated_services(benchmark):
    results = {}

    def run():
        results["heuristic (colocated)"] = run_placement(searched=False)
        results[SEARCHED] = run_placement(searched=True)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["placement", "pose module on", "FPS", "latency (ms)"],
        [[name, r["pose_device"], r["fps"], r["latency_ms"]]
         for name, r in results.items()],
        title="§7 ablation — placement strategy with a replicated pose service",
    ))
    heuristic = results["heuristic (colocated)"]
    optimized = results[SEARCHED]
    benchmark.extra_info["heuristic_fps"] = round(heuristic["fps"], 2)
    benchmark.extra_info["optimized_fps"] = round(optimized["fps"], 2)

    if FAST:
        return  # smoke mode: shape assertions need the full window
    # the heuristic lands on the alphabetical (slow) replica
    assert heuristic["pose_device"] == "athena"
    assert optimized["pose_device"] == "zeus"
    # the scheduled placement is materially faster end-to-end
    assert optimized["fps"] > heuristic["fps"] * 1.5
    assert optimized["latency_ms"] < heuristic["latency_ms"] * 0.7
