"""Multi-camera scene fusion: N views of one home, fused into world tracks.

The fan-in application ROADMAP item 3 asks for. One *scene rig* source
module owns the shared ground truth (a :class:`~repro.motion.multiview.
MultiViewScene`) and emits one frame per camera per tick through the
credit gate; per-camera branch modules estimate poses (via the
``scene_pose_estimator`` service), run the existing
:class:`~repro.vision.tracking.IoUTracker` and compute re-ID embeddings;
and a single :class:`SceneFusionModule` consumes every branch through a
fan-in DAG, maintaining the camera → room → home scene graph with fused
world tracks and per-track provenance::

    scene_rig ──> cam_track_0 ──┐
              ──> cam_track_1 ──┼──> scene_fusion
              ──> cam_track_2 ──┘

Flow control generalizes §2.3 to fan-in: the rig holds one credit worth N
frames (one per camera); each fused event returns one ready signal, and
the rig emits the next synchronized tick only when all N came back. A
frame a crash or a migration drops returns its credit too, straight from
the runtime once its last live copy ends, as for ``VideoSource``.

Frames are *annotated* (``pixels=None``): metadata carries the per-camera
ground-truth observations (already occlusion-filtered), and the pose
estimator service adds detector noise — the same fidelity model the
single-camera sources use. Ground-truth actor ids ride along purely for
offline accuracy scoring; no pipeline stage reads them to associate.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np

from . import modules as _modules  # noqa: F401 - registry side effects
from ..errors import ServiceError
from ..frames.frame import VideoFrame
from ..motion.multiview import (
    CameraView,
    MultiViewScene,
    camera_from_dict,
    camera_to_dict,
    crossing_scene,
    random_scene,
)
from ..motion.skeleton import Pose
from ..pipeline.config import ModuleConfig, PipelineConfig
from ..runtime.context import ModuleContext
from ..runtime.events import ModuleEvent
from ..runtime.module import Module
from ..runtime.registry import register_module
from ..services.base import Service, ServiceCallContext
from ..vision.bbox import BBox
from ..vision.object_detector import Detection
from ..vision.reid import SceneFusionCore, pose_embedding
from ..vision.tracking import IoUTracker


def build_scene(
    preset: str,
    cameras: int,
    actors: int,
    rng: np.random.Generator,
    cross_at: float = 3.0,
) -> MultiViewScene:
    """Materialize a scene preset for the rig.

    ``crossing`` is the fixed accuracy-harness geometry (*actors* must be
    2); ``random`` draws a seeded fuzz scene through the device RNG so
    every fleet home gets its own layout deterministically."""
    if preset == "crossing":
        if actors != 2:
            raise ServiceError("the crossing preset is a 2-actor scene")
        return crossing_scene(cameras=cameras, cross_at=cross_at)
    if preset == "random":
        seed = int(rng.integers(0, 2**31 - 1))
        return random_scene(random.Random(seed), actor_count=actors,
                            camera_count=cameras)
    raise ServiceError(f"unknown scene preset {preset!r}")


class ScenePoseEstimatorService(Service):
    """Detector front-end for the scene branches.

    Reads the ground-truth observations off an annotated frame, perturbs
    each keypoint with Gaussian detector noise scaled to apparent body
    height (distant actors are noisier in world terms — exactly why
    position-only association degrades), and returns per-person detections
    sorted by image x so output order leaks nothing about identity."""

    name = "scene_pose_estimator"
    version = "v1"
    reference_cost_s = 0.018
    default_port = 7015

    def __init__(self, sigma_frac: float = 0.008) -> None:
        self.sigma_frac = sigma_frac

    def handle(self, payload: Any, ctx: ServiceCallContext) -> Any:
        frame = payload.get("frame") if isinstance(payload, dict) else None
        if not isinstance(frame, VideoFrame):
            raise ServiceError("scene_pose_estimator expects {'frame': ref}")
        observations = frame.metadata.get("observations")
        if observations is None:
            raise ServiceError("frame carries no scene observations")
        detections = []
        for obs in observations:
            kp = np.asarray(obs["keypoints"], dtype=float)
            height_px = float(kp[:, 1].max() - kp[:, 1].min())
            sigma = max(0.35, self.sigma_frac * height_px)
            noisy = kp + ctx.rng.normal(0.0, sigma, size=kp.shape)
            pose = Pose(noisy)
            detections.append({
                "bbox": pose.bounding_box(margin=0.05),
                "keypoints": noisy,
                "actor_id": obs["actor_id"],  # evaluation hint only
            })
        detections.sort(key=lambda d: d["bbox"][0])
        return {
            "camera": frame.metadata["camera"]["name"],
            "frame_id": frame.frame_id,
            "detections": detections,
        }


@register_module("./SceneRigModule.js")
class SceneRigModule(Module):
    """Source module owning the shared ground truth for all N cameras.

    Each tick it captures one annotated frame per camera and sends it to
    the matching branch (``next_modules`` order == scene camera order).
    The credit gate is the fan-in generalization of §2.3: a tick is
    emitted only when every frame of the previous tick was fused and
    signalled back; busy ticks are dropped whole, at the source."""

    def __init__(
        self,
        fps: float = 8.0,
        duration_s: float | None = None,
        cameras: int = 3,
        actors: int = 2,
        scene: str = "crossing",
        cross_at: float = 3.0,
    ) -> None:
        self.fps = fps
        self.duration_s = duration_s
        self.cameras = cameras
        self.actors = actors
        self.scene_preset = scene
        self.cross_at = cross_at
        self.scene: MultiViewScene | None = None
        self._branches: list[str] = []
        self._outstanding = 0
        self._running = False
        self.emitted_ticks = 0
        self.dropped_ticks = 0

    def init(self, ctx: ModuleContext) -> None:
        self.scene = build_scene(
            self.scene_preset, self.cameras, self.actors,
            ctx.rng("scene_rig"), cross_at=self.cross_at,
        )
        self._branches = list(ctx.next_modules)
        if len(self._branches) != len(self.scene.cameras):
            raise ServiceError(
                f"scene rig has {len(self.scene.cameras)} cameras but "
                f"{len(self._branches)} downstream branches"
            )
        self._running = True
        ctx._runtime.kernel.process(self._capture_loop(ctx), name="scene-rig")

    def _capture(self, camera: CameraView, frame_id: int, t: float) -> VideoFrame:
        assert self.scene is not None
        observations = self.scene.observe(camera, t)
        return VideoFrame(
            frame_id=frame_id,
            source=camera.name,
            capture_time=t,
            width=camera.width,
            height=camera.height,
            channels=3,
            pixels=None,
            metadata={
                "camera": camera_to_dict(camera),
                "observations": [
                    {
                        "actor_id": obs.actor_id,
                        "keypoints": obs.pose.keypoints.tolist(),
                        "bbox": obs.bbox,
                        "world": obs.world,
                    }
                    for obs in observations
                ],
            },
        )

    def _capture_loop(self, ctx: ModuleContext):
        assert self.scene is not None
        start_time = ctx.now
        tick = 0
        n = len(self._branches)
        while self._running:
            elapsed = ctx.now - start_time
            if (self.duration_s is not None
                    and elapsed >= self.duration_s - 1e-9):
                break
            frame_ids = [tick * n + i + 1 for i in range(n)]
            if self._outstanding == 0:
                t = ctx.now
                for i, branch in enumerate(self._branches):
                    frame = self._capture(self.scene.cameras[i],
                                          frame_ids[i], t)
                    ctx.frame_entered(frame.frame_id, t)
                    ref = ctx.store_frame(frame)
                    ctx.call_module(branch, {
                        "frame": ref,
                        "frame_id": frame.frame_id,
                        "capture_time": t,
                    })
                    self._outstanding += 1
                self.emitted_ticks += 1
            else:
                # pipeline still busy: the whole tick is dropped at the
                # source (§2.3 — never queue inside the pipeline)
                for frame_id in frame_ids:
                    ctx.frame_dropped(frame_id)
                self.dropped_ticks += 1
            tick += 1
            yield 1.0 / self.fps
        self._running = False

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        pass

    def on_ready_signal(self, ctx: ModuleContext, event: ModuleEvent):
        self._outstanding -= 1  # each admitted frame returns one credit

    def shutdown(self, ctx: ModuleContext) -> None:
        self._running = False


@register_module("./SceneTrackModule.js")
class SceneTrackModule(Module):
    """One camera's branch: pose estimation, IoU tracking, re-ID features.

    Module state is the per-camera tracker plus an EMA embedding per local
    track; the heavy lifting (keypoint estimation) is the stateless
    service. Forwards only *fresh* tracklets (matched this frame) to the
    fusion stage, each with its embedding, back-projected world position
    and provenance-ready (camera, track id) identity.

    When ``reid_gate`` is set, the branch layers appearance-gated identity
    on top of the geometric tracker: a matched detection whose
    instantaneous embedding sits farther than the gate from the track's
    EMA means the IoU tracker glued two people together (the crossing
    steal), so the branch mints a fresh branch-track id with a clean EMA
    instead of corrupting the old one. ``reid_gate=None`` trusts IoU
    association blindly — the degraded arm."""

    stage = "camera_track"

    def __init__(self, iou_threshold: float = 0.35, max_misses: int = 3,
                 ema: float = 0.30, reid_gate: float | None = 0.45) -> None:
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self.ema = ema
        self.reid_gate = reid_gate
        self.tracker = IoUTracker(iou_threshold=iou_threshold,
                                  max_misses=max_misses)
        self.created_track_ids: list[int] = []
        self.reid_splits = 0
        self._next_branch_id = 1
        self._branch_ids: dict[int, int] = {}  # tracker id -> branch id
        self._embeddings: dict[int, np.ndarray] = {}  # branch id -> EMA
        self._camera: CameraView | None = None

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            ref = payload["frame"]
            frame = ctx.get_frame(ref)
            if self._camera is None:
                self._camera = camera_from_dict(frame.metadata["camera"])
            result = yield ctx.call_service("scene_pose_estimator",
                                            {"frame": ref})
            ctx.release(ref)
            tracklets = self._track(result["detections"])
            ctx.call_next({
                "camera": self._camera.name,
                "room": self._camera.room,
                "frame_id": payload["frame_id"],
                "capture_time": payload["capture_time"],
                "tracklets": tracklets,
            })

        return flow()

    def _branch_identity(self, tracker_id: int,
                         instantaneous: np.ndarray) -> int:
        """Resolve the stable branch-track id for a matched tracker track,
        splitting off a fresh identity when the appearance gate trips."""
        branch_id = self._branch_ids.get(tracker_id)
        if branch_id is not None and self.reid_gate is not None:
            previous = self._embeddings[branch_id]
            if float(np.linalg.norm(instantaneous - previous)) > self.reid_gate:
                self.reid_splits += 1
                self._embeddings.pop(branch_id, None)
                branch_id = None  # the IoU match glued two people together
        if branch_id is None:
            branch_id = self._next_branch_id
            self._next_branch_id += 1
            self._branch_ids[tracker_id] = branch_id
            self.created_track_ids.append(branch_id)
            self._embeddings[branch_id] = instantaneous
        else:
            self._embeddings[branch_id] = (
                (1.0 - self.ema) * self._embeddings[branch_id]
                + self.ema * instantaneous
            )
        return branch_id

    def _track(self, detections: list[dict]) -> list[dict]:
        assert self._camera is not None
        boxes = [Detection(label="person", bbox=BBox(*d["bbox"]), score=1.0)
                 for d in detections]
        tracks = self.tracker.update(boxes)
        by_bbox = {tuple(d["bbox"]): d for d in detections}
        fresh: list[dict] = []
        for track in sorted(tracks, key=lambda tr: tr.track_id):
            if track.misses > 0:
                continue  # coasting on a miss; nothing fresh to fuse
            detection = by_bbox.get(track.bbox.as_tuple())
            if detection is None:
                continue
            pose = Pose(np.asarray(detection["keypoints"], dtype=float))
            branch_id = self._branch_identity(track.track_id,
                                              pose_embedding(pose))
            x0, y0, x1, y1 = track.bbox.as_tuple()
            # bounding_box pads 5% per side; undo it to recover the
            # keypoint span that back-projection expects
            height_px = (y1 - y0) / 1.1
            world = self._camera.back_project((x0 + x1) / 2.0, height_px)
            fresh.append({
                "track_id": branch_id,
                "bbox": (x0, y0, x1, y1),
                "embedding": self._embeddings[branch_id],
                "world": world,
                "actor_id": detection.get("actor_id"),  # evaluation only
            })
        live = {track.track_id for track in self.tracker.tracks}
        for tracker_id in [tid for tid in self._branch_ids
                           if tid not in live]:
            branch_id = self._branch_ids.pop(tracker_id)
            self._embeddings.pop(branch_id, None)
        return fresh


@register_module("./SceneFusionModule.js")
class SceneFusionModule(Module):
    """Fan-in sink: fuses every camera's tracklets into world tracks.

    Wraps the kernel-free :class:`~repro.vision.reid.SceneFusionCore`;
    each arriving branch event re-associates the scene, completes its
    frame and returns the rig's ready signal. ``fusion_cost_s`` is the
    modelled association compute charged per event, which is what makes
    the fusion stage's placement a real optimizer decision."""

    def __init__(
        self,
        use_reid: bool = True,
        embed_threshold: float = 0.30,
        position_threshold_m: float = 0.90,
        retention_s: float = 2.5,
        fusion_cost_s: float = 0.004,
    ) -> None:
        self.core = SceneFusionCore(
            use_reid=use_reid,
            embed_threshold=embed_threshold,
            position_threshold_m=position_threshold_m,
            retention_s=retention_s,
        )
        self.event_overhead_s = fusion_cost_s
        self.frame_ids: list[int] = []

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        payload = event.payload
        self.core.update(
            payload["camera"], payload["capture_time"],
            payload["tracklets"], room=payload.get("room", "home"),
        )
        self.frame_ids.append(payload["frame_id"])
        ctx.finish(payload["frame_id"])

    def scene_graph(self) -> dict:
        return self.core.scene_graph()

    @property
    def history(self) -> list[dict]:
        return self.core.history


def install_scene_services(home, device: str, *, port: int | None = None,
                           sigma_frac: float = 0.008) -> None:
    """Deploy the scene branches' pose estimator on *device*."""
    home.deploy_service(ScenePoseEstimatorService(sigma_frac=sigma_frac),
                        device, port=port)


def multi_camera_pipeline_config(
    name: str = "scene_fusion",
    cameras: int = 3,
    actors: int = 2,
    fps: float = 8.0,
    duration_s: float | None = None,
    base_port: int = 5930,
    source_device: str = "camera",
    scene: str = "crossing",
    cross_at: float = 3.0,
    use_reid: bool = True,
    embed_threshold: float = 0.30,
    position_threshold_m: float = 0.90,
    reid_gate: float = 0.45,
    fusion_name: str = "scene_fusion_module",
) -> PipelineConfig:
    """rig → N per-camera track branches → one fused sink (fan-in DAG)."""
    branches = [f"cam_track_{i}" for i in range(cameras)]
    modules = [
        ModuleConfig(
            name="scene_rig_module", include="./SceneRigModule.js",
            endpoint=f"bind#tcp://*:{base_port}", device=source_device,
            next_modules=list(branches),
            params={
                "fps": fps, "duration_s": duration_s, "cameras": cameras,
                "actors": actors, "scene": scene, "cross_at": cross_at,
            },
        ),
        *[
            ModuleConfig(
                name=branch, include="./SceneTrackModule.js",
                services=["scene_pose_estimator"],
                endpoint=f"bind#tcp://*:{base_port + 1 + i}",
                next_modules=[fusion_name],
                params={"reid_gate": reid_gate if use_reid else None},
            )
            for i, branch in enumerate(branches)
        ],
        ModuleConfig(
            name=fusion_name, include="./SceneFusionModule.js",
            endpoint=f"bind#tcp://*:{base_port + 1 + cameras}",
            next_modules=[],
            params={
                "use_reid": use_reid,
                "embed_threshold": embed_threshold,
                "position_threshold_m": position_threshold_m,
            },
        ),
    ]
    return PipelineConfig(name=name, modules=modules,
                          source="scene_rig_module")
