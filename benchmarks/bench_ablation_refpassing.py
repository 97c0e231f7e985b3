"""A4 — §3 ablation: frame hand-off cost across three data planes.

Paper: "To minimize data copying between different components, rather than
copying the full image frames to the module, we pass on a reference id that
identifies the frame."

A chain of co-located relay modules forwards frames three ways:

* ``copy`` — each hop JPEG-encodes and re-decodes the full frame;
* ``ref`` — hops pass a :class:`FrameRef` (the seed VideoPipe design),
  which still serializes the reference payload onto the loopback wire;
* ``arena`` — the shared-memory frame plane: hops ship a flat
  ``(arena_id, offset, generation)`` handle envelope and the payload tree
  is never walked.

The test prints the per-hop cost of each and writes a JSON report
(``REPRO_REFPASS_OUT`` chooses where; CI uploads it).
"""

import json
import os

from repro import Module, VideoPipe, register_module
from repro.frames import SyntheticCamera, encode_frame
from repro.metrics import format_table
from repro.motion import Squat
from repro.pipeline import DataPlaneConfig, ModuleConfig, PipelineConfig

from .conftest import FAST

HOPS = 6
FRAMES = 100


@register_module("./RefChainSource.js")
class ChainSource(Module):
    """Feeds frames into the relay chain (by ref or by value)."""

    def __init__(self, by_reference=True, frames=FRAMES, interval_s=0.05):
        self.by_reference = by_reference
        self.frames = frames
        self.interval_s = interval_s

    def init(self, ctx):
        camera = SyntheticCamera(ctx.device_name, Squat())

        def feed():
            for i in range(1, self.frames + 1):
                frame = camera.capture(i, ctx.now)
                ctx.metrics.frame_entered(i, ctx.now)
                if self.by_reference:
                    payload = {"frame": ctx.store_frame(frame), "frame_id": i}
                else:
                    encoded = encode_frame(frame)
                    yield ctx._runtime.device.cpu.execute_fixed(
                        encoded.encode_cost_s)
                    payload = {"frame_bytes": encoded, "frame_id": i}
                ctx.call_next(payload)
                yield self.interval_s

        ctx._runtime.kernel.process(feed(), name="chain-feed")

    def event_received(self, ctx, event):
        pass


@register_module("./RefChainRelay.js")
class ChainRelay(Module):
    """One hop: receives the frame and forwards it downstream."""

    def __init__(self, by_reference=True, last=False):
        self.by_reference = by_reference
        self.last = last

    def event_received(self, ctx, event):
        def flow():
            payload = event.payload
            if self.by_reference:
                out = {"frame": payload["frame"], "frame_id": payload["frame_id"]}
            else:
                # by-value hop: the arriving EncodedFrame was decoded by the
                # runtime into the store (under the same payload key);
                # re-encode to hand a full copy onward
                ref = payload["frame_bytes"]
                frame = ctx.get_frame(ref)
                encoded = encode_frame(frame)
                yield ctx._runtime.device.cpu.execute_fixed(encoded.encode_cost_s)
                ctx.release(ref)
                out = {"frame_bytes": encoded, "frame_id": payload["frame_id"]}
            if self.last:
                if self.by_reference:
                    ctx.release(out["frame"])
                ctx.metrics.frame_completed(payload["frame_id"], ctx.now)
            else:
                ctx.call_next(out)

        return flow()


def chain_config(mode: str) -> PipelineConfig:
    by_reference = mode != "copy"
    modules = [
        ModuleConfig(
            name=f"{mode}_source", include="./RefChainSource.js",
            endpoint="bind#tcp://*:0",
            next_modules=[f"{mode}_relay_1"],
            params={"by_reference": by_reference},
        )
    ]
    for i in range(1, HOPS + 1):
        last = i == HOPS
        modules.append(
            ModuleConfig(
                name=f"{mode}_relay_{i}", include="./RefChainRelay.js",
                endpoint="bind#tcp://*:0",
                next_modules=[] if last else [f"{mode}_relay_{i + 1}"],
                params={"by_reference": by_reference, "last": last},
            )
        )
    return PipelineConfig(name=f"chain-{mode}", modules=modules)


MODES = ("copy", "ref", "arena")


def run_chain(mode: str):
    home = VideoPipe(seed=23)
    home.add_device("desktop")
    if mode == "arena":
        home.enable_data_plane(DataPlaneConfig(replica_pool=False))
    pipeline = home.deploy_pipeline(chain_config(mode),
                                    default_device="desktop")
    home.run(until=FRAMES * 0.05 + 2.0)
    metrics = pipeline.metrics
    latency_ms = metrics.total_latency_summary().mean * 1e3
    store = home.device("desktop").frame_store
    loopback = home.topology.loopback("desktop")
    result = {
        "latency_ms": latency_ms,
        "per_hop_ms": latency_ms / HOPS,
        "frames": metrics.counter("frames_completed"),
        "cpu_busy_s": home.device("desktop").cpu.busy_seconds,
        "peak_store": store.peak_occupancy,
        "wire_bytes": loopback.bytes_sent,
        "bytes_per_hop": loopback.bytes_sent / (FRAMES * HOPS),
    }
    if mode == "arena":
        result["arena"] = home.data_plane_stats()["arena"]
    return result


def test_reference_passing_beats_copying(benchmark, tmp_path):
    results = {}

    def run():
        for mode in MODES:
            results[mode] = run_chain(mode)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    copy, ref, arena = results["copy"], results["ref"], results["arena"]
    print()
    print(format_table(
        ["metric", "full copies", "reference ids", "shm arena"],
        [["chain latency (ms)", copy["latency_ms"], ref["latency_ms"],
          arena["latency_ms"]],
         ["per-hop latency (ms)", copy["per_hop_ms"], ref["per_hop_ms"],
          arena["per_hop_ms"]],
         ["device CPU busy (s)", copy["cpu_busy_s"], ref["cpu_busy_s"],
          arena["cpu_busy_s"]],
         ["wire bytes per hop", copy["bytes_per_hop"], ref["bytes_per_hop"],
          arena["bytes_per_hop"]],
         ["frames completed", copy["frames"], ref["frames"],
          arena["frames"]]],
        title=f"§3 ablation — {HOPS}-hop co-located relay chain",
        float_format="{:.2f}",
    ))
    benchmark.extra_info["copy_per_hop_ms"] = round(copy["per_hop_ms"], 3)
    benchmark.extra_info["ref_per_hop_ms"] = round(ref["per_hop_ms"], 3)
    benchmark.extra_info["arena_per_hop_ms"] = round(arena["per_hop_ms"], 3)
    benchmark.extra_info["arena_bytes_per_hop"] = round(
        arena["bytes_per_hop"], 1)

    artifact = os.environ.get("REPRO_REFPASS_OUT",
                              str(tmp_path / "BENCH_refpassing.json"))
    os.makedirs(os.path.dirname(os.path.abspath(artifact)), exist_ok=True)
    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump({"hops": HOPS, "frames": FRAMES, "fast_mode": FAST,
                   "modes": results}, fh, indent=2, sort_keys=True)
    print(f"ref-passing ablation report written to {artifact}")

    if FAST:
        return  # smoke mode: shape assertions need the full window
    assert all(results[mode]["frames"] == FRAMES for mode in MODES)
    # copying pays encode+decode per hop; references are nearly free
    assert copy["per_hop_ms"] > ref["per_hop_ms"] * 3.0
    assert copy["cpu_busy_s"] > ref["cpu_busy_s"] * 2.0
    # the arena ships a flat handle envelope: fewer bytes than the
    # serialized reference payload, and never slower per hop
    assert arena["bytes_per_hop"] < ref["bytes_per_hop"]
    assert arena["per_hop_ms"] <= ref["per_hop_ms"] * 1.01
    assert arena["arena"]["stale_accesses"] == 0
    assert arena["arena"]["live"] == 0  # every slot was handed back
