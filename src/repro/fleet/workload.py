"""The fleet harness's per-home workload: devices, services, pipeline.

Every simulated home runs the same *shape* of application — camera →
detect → classify → alert → sink — over a home-specific device mix and
frame rate, so fleet-level aggregates compare like with like while the
placement problem differs home to home. The stage modules are deliberately
generic (one service call per stage, payload forwarded by reference) so a
home's cost structure comes from its devices and links, not from
app-specific module logic.
"""

from __future__ import annotations

import random

# the fleet pipeline's source is the library's VideoStreamingModule; the
# import registers it (and the rest of the library) with the module registry
from ..apps import modules as _app_modules  # noqa: F401
from ..pipeline.config import ModuleConfig, PipelineConfig
from ..runtime.context import ModuleContext
from ..runtime.events import ModuleEvent
from ..runtime.module import Module
from ..runtime.registry import register_module
from ..services.base import FunctionService

#: Container-capable hub candidates; every home gets exactly one.
HUB_KINDS = ("desktop", "laptop", "tablet")

#: Extra devices a home may additionally contain (0–3 of these).
EXTRA_KINDS = ("tv", "fridge", "watch", "tablet", "laptop")


@register_module("./FleetStageModule.js")
class FleetStageModule(Module):
    """A generic per-frame stage: call one service, forward the payload.

    Params:
        service: the service this stage calls per frame.
        stage: metrics stage name (defaults to the service name). Naming
            the stage after the *module* lets the online optimizer
            calibrate from ``MetricsCollector`` when tracing is off.
    """

    def __init__(self, service: str, stage: str | None = None) -> None:
        self.service = service
        self.stage = stage or service

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            ref = payload["frame"]
            started = ctx.now
            try:
                result = yield ctx.call_service(self.service, {"frame": ref})
            except Exception:
                # a failed call must not wedge the home: free the frame,
                # refill the credit, surface the error to the runtime
                ctx.release(ref)
                ctx.metrics.increment(f"{self.stage}_failures")
                ctx.frame_completed(payload["frame_id"])
                ctx.signal_source()
                raise
            ctx.record_stage(self.stage, ctx.now - started)
            out = dict(payload)
            out[self.stage] = result
            ctx.call_next(out)

        return flow()


@register_module("./FleetSinkModule.js")
class FleetSinkModule(Module):
    """The fleet sink: completes frames and refills the source credit.

    Keeps the arrival order (``frame_ids``) for the harness's monotonicity
    checks — under the §2.3 credit protocol one frame is in flight at a
    time, so ids at the sink must be strictly increasing."""

    def __init__(self) -> None:
        self.frame_ids: list[int] = []

    def event_received(self, ctx: ModuleContext, event: ModuleEvent) -> None:
        payload = event.payload
        self.frame_ids.append(payload["frame_id"])
        ctx.record_stage("total_duration", ctx.now - payload["capture_time"])
        ref = payload.get("frame")
        if ref is not None:
            ctx.release(ref)
        ctx.frame_completed(payload["frame_id"])
        ctx.signal_source()


def _detect(payload, ctx) -> dict:
    return {"objects": 1}


def _classify(payload, ctx) -> dict:
    return {"label": "person", "confidence": 0.9}


def _alert(payload, ctx) -> dict:
    return {"alert": False}


def install_home_services(home, hub_device: str, camera_device: str) -> None:
    """Deploy one home's services: a heavy detector and a lighter
    classifier in containers on the hub, a tiny native alerter on the
    camera device (native services run anywhere, §3)."""
    home.deploy_service(
        FunctionService("fleet_detector", _detect, reference_cost_s=0.016),
        hub_device,
        port=7910,
    )
    home.deploy_service(
        FunctionService("fleet_classifier", _classify, reference_cost_s=0.006),
        hub_device,
        port=7911,
    )
    home.deploy_service(
        FunctionService("fleet_alerter", _alert, reference_cost_s=0.0015),
        camera_device,
        native=True,
        port=7912,
    )


def install_cloud_services(home, wan=None) -> None:
    """Attach the cloud tier to one home: a ``cloud`` device behind a
    metered WAN uplink, hosting replicas of the heavy services.

    The cloud is modeled as an *elastic slice* — each home gets its own
    device instance and WAN link, so homes never contend in the simulation
    and per-home results stay shard-invariant; sharedness is expressed in
    dollars through :class:`~repro.pipeline.optimizer.CloudPricing`
    (``docs/FLEET.md``). Only the detector and classifier get replicas:
    the alerter is too cheap for a WAN round trip to ever pay off."""
    cloud = home.add_cloud_device(wan=wan).name
    home.deploy_service(
        FunctionService("fleet_detector", _detect, reference_cost_s=0.016),
        cloud,
        port=7920,
    )
    home.deploy_service(
        FunctionService("fleet_classifier", _classify, reference_cost_s=0.006),
        cloud,
        port=7921,
    )


def install_scene_home_services(home, hub_device: str) -> None:
    """Deploy one home's services for the *scene* workload: the pose
    estimator every camera branch calls, containerized on the hub."""
    from ..apps import install_scene_services

    install_scene_services(home, hub_device, port=7914)


def scene_home_pipeline_config(
    name: str,
    camera_device: str,
    fps: float = 8.0,
    duration_s: float = 4.0,
    balancing: str | None = None,
) -> PipelineConfig:
    """The per-home *scene* DAG: one rig fanning out to two camera-track
    branches that fan back into one fusion sink — the fan-in counterpart
    of the linear stage workload. The fusion module is named ``sink`` so
    the harness reads its ``frame_ids`` like any other home's."""
    from ..apps import multi_camera_pipeline_config

    return multi_camera_pipeline_config(
        name=name,
        cameras=2,
        fps=fps,
        duration_s=duration_s,
        source_device=camera_device,
        credit_timeout_s=1.0,
        fusion_name="sink",
        balancing=balancing,
    )


def home_device_kinds(rng: random.Random) -> list[str]:
    """One home's device mix: a phone camera, a container-capable hub, and
    0–3 extra devices. Deterministic under the caller's seeded *rng*."""
    kinds = ["phone", rng.choice(HUB_KINDS)]
    for _ in range(rng.randrange(4)):
        kinds.append(rng.choice(EXTRA_KINDS))
    return kinds


def home_pipeline_config(
    name: str,
    camera_device: str,
    fps: float = 8.0,
    duration_s: float = 4.0,
    balancing: str | None = None,
) -> PipelineConfig:
    """The per-home application DAG. The source is pinned to the camera
    device (the sensor is physical); everything else is free for the
    placement strategy to assign. ``credit_timeout_s`` keeps the stream
    alive across live migrations that drop an in-flight frame."""
    return PipelineConfig(
        name=name,
        balancing=balancing,
        modules=[
            ModuleConfig(
                name="camera",
                include="./VideoStreamingModule.js",
                device=camera_device,
                next_modules=["detect"],
                params={
                    "fps": fps,
                    "duration_s": duration_s,
                    "credit_timeout_s": 1.0,
                },
            ),
            ModuleConfig(
                name="detect",
                include="./FleetStageModule.js",
                services=["fleet_detector"],
                next_modules=["classify"],
                params={"service": "fleet_detector", "stage": "detect"},
            ),
            ModuleConfig(
                name="classify",
                include="./FleetStageModule.js",
                services=["fleet_classifier"],
                next_modules=["alert"],
                params={"service": "fleet_classifier", "stage": "classify"},
            ),
            ModuleConfig(
                name="alert",
                include="./FleetStageModule.js",
                services=["fleet_alerter"],
                next_modules=["sink"],
                params={"service": "fleet_alerter", "stage": "alert"},
            ),
            ModuleConfig(name="sink", include="./FleetSinkModule.js"),
        ],
    )
