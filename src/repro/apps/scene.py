"""Scene analytics: object detection + tracking over a synthetic room camera.

§4.3: "Real-time video analytics consisting of hand detection/tracking,
face detection/tracking and pose detection/tracking, can create ample
opportunities for new user interfaces with IoT devices". This module builds
the detection/tracking flavour of that family on the same VideoPipe
primitives: a camera watching household objects drift through the frame, a
detection module calling the object_detector service, and a tracking module
that keeps identity state while the stateless tracker service does the
association work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modules as _modules  # noqa: F401 - registry side effects
from ..frames.frame import VideoFrame
from ..frames.video_source import VideoSource
from ..pipeline.config import ModuleConfig, PipelineConfig
from ..runtime.context import ModuleContext
from ..runtime.events import ModuleEvent
from ..runtime.module import Module
from ..runtime.registry import register_module
from ..vision.bbox import BBox
from ..vision.object_detector import COLOR_CLASSES, SceneObject, render_scene


@dataclass(slots=True)
class MovingObject:
    """One object drifting around the scene, bouncing off the edges."""

    kind: str
    x: float
    y: float
    vx: float
    vy: float
    size: float

    def at(self, t: float, width: int, height: int) -> SceneObject:
        """Position at time *t* with elastic reflection off the borders."""
        span_x = max(1.0, width - self.size)
        span_y = max(1.0, height - self.size)
        x = _bounce(self.x + self.vx * t, span_x)
        y = _bounce(self.y + self.vy * t, span_y)
        return SceneObject(
            self.kind, BBox(x, y, x + self.size, y + self.size)
        )


def _bounce(value: float, span: float) -> float:
    """Reflect *value* into [0, span] (triangle wave)."""
    period = 2.0 * span
    value = value % period
    return value if value <= span else period - value


class SceneCamera:
    """Renders an RGB frame of the moving objects at each capture."""

    def __init__(
        self,
        device: str,
        objects: list[MovingObject] | None = None,
        width: int = 160,
        height: int = 120,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.device = device
        self.width = width
        self.height = height
        self.rng = rng
        if objects is None:
            objects = default_scene(rng or np.random.default_rng(0),
                                    width, height)
        self.objects = objects

    def capture(self, frame_id: int, t: float) -> VideoFrame:
        scene = [obj.at(t, self.width, self.height) for obj in self.objects]
        pixels = render_scene(scene, self.width, self.height, rng=self.rng)
        return VideoFrame(
            frame_id=frame_id,
            source=self.device,
            capture_time=t,
            width=self.width,
            height=self.height,
            channels=3,
            pixels=pixels,
            metadata={"truth_objects": [(o.kind, o.bbox.as_tuple())
                                        for o in scene]},
        )


def default_scene(rng: np.random.Generator, width: int, height: int,
                  count: int = 3) -> list[MovingObject]:
    """A few distinct household objects with gentle drift."""
    kinds = list(COLOR_CLASSES)
    objects = []
    for i in range(count):
        objects.append(MovingObject(
            kind=kinds[i % len(kinds)],
            x=float(rng.uniform(0, width * 0.7)),
            y=float(rng.uniform(0, height * 0.7)),
            vx=float(rng.uniform(3.0, 9.0)) * (1 if i % 2 else -1),
            vy=float(rng.uniform(2.0, 6.0)),
            size=float(rng.uniform(14, 22)),
        ))
    return objects


@register_module("./SceneCameraModule.js")
class SceneCameraModule(Module):
    """Source module for the scene pipeline (credit-gated like §2.3)."""

    def __init__(self, fps: float = 10.0, duration_s: float | None = None,
                 object_count: int = 3) -> None:
        self.fps = fps
        self.duration_s = duration_s
        self.object_count = object_count
        self.source: VideoSource | None = None

    def init(self, ctx: ModuleContext) -> None:
        rng = ctx.rng("scene")
        camera = SceneCamera(
            ctx.device_name,
            objects=default_scene(rng, 160, 120, self.object_count),
            rng=rng,
        )
        self.source = VideoSource(
            ctx._runtime.kernel, camera, fps=self.fps,
            deliver=lambda frame: self._admit(ctx, frame),
            on_drop=lambda frame: ctx.frame_dropped(frame.frame_id),
        )
        self.source.start(duration_s=self.duration_s)

    def _admit(self, ctx: ModuleContext, frame: VideoFrame) -> None:
        ctx.frame_entered(frame.frame_id, frame.capture_time)
        ref = ctx.store_frame(frame)
        ctx.call_next({"frame": ref, "frame_id": frame.frame_id,
                       "capture_time": frame.capture_time})

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        pass

    def on_ready_signal(self, ctx: ModuleContext, event: ModuleEvent):
        assert self.source is not None
        self.source.grant_credit()

    def shutdown(self, ctx: ModuleContext) -> None:
        if self.source is not None:
            self.source.stop()


@register_module("./ObjectDetectionModule.js")
class ObjectDetectionModule(Module):
    """Calls the object detector; forwards labelled boxes (drops pixels)."""

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            ref = payload["frame"]
            result = yield ctx.call_service("object_detector", {"frame": ref})
            ctx.release(ref)
            ctx.call_next({
                "frame_id": payload["frame_id"],
                "capture_time": payload["capture_time"],
                "detections": result["detections"],
            })

        return flow()


@register_module("./ObjectTrackingModule.js")
class ObjectTrackingModule(Module):
    """Keeps track state (module state); the stateless service associates."""

    def __init__(self) -> None:
        self.tracks: list[dict] = []
        self.next_track_id = 1
        self.appeared: list[tuple[float, int, str]] = []
        self._seen_ids: set[int] = set()

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            result = yield ctx.call_service("object_tracker", {
                "detections": payload["detections"],
                "tracks": self.tracks,
                "next_track_id": self.next_track_id,
            })
            self.tracks = result["tracks"]
            self.next_track_id = result["next_track_id"]
            for track in self.tracks:
                if track["track_id"] not in self._seen_ids:
                    self._seen_ids.add(track["track_id"])
                    self.appeared.append(
                        (ctx.now, track["track_id"], track["label"])
                    )
                    ctx.metrics.increment("tracks_created")
            ctx.finish(payload["frame_id"])

        return flow()


def scene_pipeline_config(
    name: str = "scene",
    fps: float = 10.0,
    duration_s: float | None = None,
    base_port: int = 5920,
    source_device: str = "camera",
    object_count: int = 3,
) -> PipelineConfig:
    """camera → object detection → tracking."""
    return PipelineConfig(
        name=name,
        modules=[
            ModuleConfig(
                name="scene_camera_module", include="./SceneCameraModule.js",
                endpoint=f"bind#tcp://*:{base_port}", device=source_device,
                next_modules=["object_detection_module"],
                params={"fps": fps, "duration_s": duration_s,
                        "object_count": object_count},
            ),
            ModuleConfig(
                name="object_detection_module",
                include="./ObjectDetectionModule.js",
                services=["object_detector"],
                endpoint=f"bind#tcp://*:{base_port + 1}",
                next_modules=["object_tracking_module"],
            ),
            ModuleConfig(
                name="object_tracking_module",
                include="./ObjectTrackingModule.js",
                services=["object_tracker"],
                endpoint=f"bind#tcp://*:{base_port + 2}",
                next_modules=[],
            ),
        ],
        source="scene_camera_module",
    )
