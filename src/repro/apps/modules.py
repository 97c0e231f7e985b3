"""The application modules behind the paper's pipelines (Fig. 4).

Each module is the Python analog of the JavaScript file the configuration
``include``s — stateful, event-driven, talking to stateless services. The
fitness pipeline chains::

    VideoStreaming -> PoseDetection -> ActivityRecognition -> {RepCounter,
                                                               Display}
    RepCounter -> Display

with the display module granting the source its next-frame credit (§2.3).
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from ..frames.video_source import SyntheticCamera, VideoSource
from ..motion.exercises import make_model
from ..motion.skeleton import Pose
from ..motion.trajectory import random_subject
from ..runtime.context import ModuleContext
from ..runtime.events import ModuleEvent
from ..runtime.module import Module
from ..runtime.registry import register_module
from ..vision.features import WINDOW_FRAMES, frame_feature


@register_module("./VideoStreamingModule.js")
class VideoStreamingModule(Module):
    """The source: captures camera frames and feeds the pipeline under the
    no-queue credit protocol.

    Params (configuration ``params``):
        fps: camera frame rate.
        motion: activity label for the synthetic subject.
        duration_s / max_frames: capture bounds.
        mode: ``"signal"`` (paper) or ``"push"`` (queued ablation).
        capture_jitter_cv: camera timing jitter.
    """

    def __init__(
        self,
        fps: float = 10.0,
        motion: str = "squat",
        duration_s: float | None = None,
        max_frames: int | None = None,
        mode: str = "signal",
        capture_jitter_cv: float = 0.02,
        period_s: float = 2.0,
        randomize_subject: bool = False,
        static_scene: bool = False,
    ) -> None:
        self.fps = fps
        self.motion = motion
        self.duration_s = duration_s
        self.max_frames = max_frames
        self.mode = mode
        self.capture_jitter_cv = capture_jitter_cv
        self.period_s = period_s
        self.randomize_subject = randomize_subject
        #: Freeze the camera content after the first capture: every frame is
        #: byte-identical (fresh ids/timestamps), the dedup/cache workload.
        self.static_scene = static_scene
        self.source: VideoSource | None = None

    def init(self, ctx: ModuleContext) -> None:
        rng = ctx.rng("camera")
        subject = random_subject(rng) if self.randomize_subject else None
        camera = SyntheticCamera(
            ctx.device_name,
            make_model(self.motion, period_s=self.period_s),
            subject=subject,
            freeze=self.static_scene,
        )
        self.source = VideoSource(
            ctx._runtime.kernel,
            camera,
            fps=self.fps,
            deliver=lambda frame: self._admit(ctx, frame),
            mode=self.mode,
            jitter_cv=self.capture_jitter_cv,
            rng=rng,
            on_drop=lambda frame: ctx.frame_dropped(frame.frame_id),
        )
        self.source.start(duration_s=self.duration_s, max_frames=self.max_frames)

    def _admit(self, ctx: ModuleContext, frame) -> None:
        ctx.frame_entered(frame.frame_id, frame.capture_time)
        ref = ctx.store_frame(frame)
        ctx.call_next(
            {
                "frame": ref,
                "frame_id": frame.frame_id,
                "capture_time": frame.capture_time,
            }
        )

    def event_received(self, ctx: ModuleContext, event: ModuleEvent) -> Any:
        """The source has no upstream; data events are ignored."""

    def on_ready_signal(self, ctx: ModuleContext, event: ModuleEvent) -> Any:
        assert self.source is not None
        self.source.grant_credit()

    def shutdown(self, ctx: ModuleContext) -> None:
        if self.source is not None:
            self.source.stop()


@register_module("./PoseDetectorModule.js")
class PoseDetectionModule(Module):
    """Calls the pose service per frame; forwards keypoints (and, when the
    downstream needs pixels, the frame itself)."""

    service = "pose_detector"
    stage = "pose_detection"
    load_stage = "load_frame"

    def __init__(self, forward_frame: bool = True) -> None:
        #: Pipelines that never render the frame downstream (e.g. gesture
        #: control) set this False so pixels stop travelling here.
        self.forward_frame = forward_frame

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            ref = payload["frame"]
            result = yield ctx.call_service(self.service, {"frame": ref})
            if not result.get("detected"):
                # nothing to analyze: drop the frame, free the pipeline
                ctx.release(ref)
                ctx.metrics.increment("pose_misses")
                ctx.finish(payload["frame_id"])
                return
            out = {
                "frame_id": payload["frame_id"],
                "capture_time": payload["capture_time"],
                "keypoints": np.asarray(result["keypoints"]),
                "visibility": np.asarray(result["visibility"]),
                "pose_score": result["score"],
            }
            if self.forward_frame:
                out["frame"] = ref
            else:
                ctx.release(ref)
            ctx.call_next(out)

        return flow()


@register_module("./ActivityDetectorModule.js")
class ActivityRecognitionModule(Module):
    """Maintains the 15-frame window (module state) and calls the stateless
    activity classifier once the window is full.

    The window holds each pose's normalized row (:func:`frame_feature`),
    computed once when the pose arrives; the shipped feature is their
    concatenation, the same bytes as ``window_feature`` of the poses."""

    stage = "activity_detection"

    def __init__(self, window: int = WINDOW_FRAMES, forward_frame_to: str = "display",
                 service: str = "activity_classifier") -> None:
        #: Which classifier backs this module — the fitness pipeline uses
        #: "activity_classifier", the gesture pipeline "gesture_classifier".
        self.service = service
        self.window = window
        #: Substring selecting which downstream modules receive the frame
        #: itself; the others get keypoints/labels only (the rep counter
        #: needs no pixels, so shipping it the frame would waste the link).
        self.forward_frame_to = forward_frame_to
        self._rows: deque[np.ndarray] = deque(maxlen=window)

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            pose = Pose(payload["keypoints"], payload.get("visibility"))
            self._rows.append(frame_feature(pose))
            label = None
            confidence = 0.0
            if len(self._rows) == self.window:
                feature = np.concatenate(self._rows)
                try:
                    result = yield ctx.call_service(
                        self.service, {"window_feature": feature}
                    )
                    label = result["label"]
                    confidence = result["confidence"]
                except Exception:
                    # degrade to an unlabelled frame rather than stall
                    ctx.metrics.increment("activity_failures")
            out = dict(payload)
            out["activity"] = label
            out["activity_confidence"] = confidence
            self._fan_out(ctx, out)

        return flow()

    def _fan_out(self, ctx: ModuleContext, out: dict) -> None:
        """Send the frame only to frame-consuming targets; others get a
        frame-free copy. Reference holds are balanced per frame-bearing send."""
        ref = out.pop("frame", None)
        frameless = out
        frame_targets = [
            t for t in ctx.next_modules if self.forward_frame_to in t
        ]
        other_targets = [
            t for t in ctx.next_modules if self.forward_frame_to not in t
        ]
        for target in other_targets:
            ctx.call_module(target, dict(frameless))
        if ref is None:
            # nothing to attach: frame-consuming targets still get the data
            for target in frame_targets:
                ctx.call_module(target, dict(frameless))
            return
        if not frame_targets:
            ctx.release(ref)
            return
        for _ in range(len(frame_targets) - 1):
            ctx.add_ref(ref)
        for target in frame_targets:
            ctx.call_module(target, dict(frameless, frame=ref))


@register_module("./RepCounterModule.js")
class RepCounterModule(Module):
    """Accumulates the bout's per-frame features (module state); ships them
    to the stateless rep counter service; forwards the count."""

    service = "rep_counter"
    stage = "rep_count"

    def __init__(self, min_frames: int = 20, max_frames: int = 150) -> None:
        self.min_frames = min_frames
        self.max_frames = max_frames
        self._features: list[np.ndarray] = []
        self.reps = 0

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            pose = Pose(payload["keypoints"], payload.get("visibility"))
            self._features.append(pose.normalized().flatten())
            if len(self._features) > self.max_frames:
                self._features.pop(0)
            if len(self._features) >= self.min_frames:
                try:
                    result = yield ctx.call_service(
                        self.service, {"features": np.stack(self._features)}
                    )
                    self.reps = result["reps"]
                except Exception:
                    # keep the previous count rather than stall the chain
                    ctx.metrics.increment("rep_count_failures")
            # frames fan out to display via ActivityRecognition; the rep
            # counter only forwards the number (Fig. 4)
            out = {
                "frame_id": payload["frame_id"],
                "capture_time": payload["capture_time"],
                "reps": self.reps,
            }
            if "frame" in payload:
                ctx.release(payload["frame"])
            ctx.call_next(out)

        return flow()


@register_module("./DisplayModule.js")
class DisplayModule(Module):
    """The sink: composites to the screen and — once it is done with the
    frame — signals the source for the next one (§2.3).

    Keeps the latest activity label and rep count as module state so every
    rendered frame carries current overlay info, whichever upstream event
    arrived last.
    """

    service = "display"

    def __init__(self) -> None:
        self.last_label: str | None = None
        self.last_reps: int | None = None
        self.frames_shown = 0

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        payload = event.payload
        if "reps" in payload:
            self.last_reps = payload["reps"]
        if payload.get("activity") is not None:
            self.last_label = payload["activity"]
        ref = payload.get("frame")
        if ref is None:
            return  # a reps-only update; nothing to composite

        def flow():
            call = ctx.call_service(
                self.service,
                {
                    "frame": ref,
                    "keypoints": payload.get("keypoints"),
                    "label": self.last_label,
                    "reps": self.last_reps,
                },
            )
            if ctx.service_is_local(self.service):
                # co-located display: the frame was handed over by
                # reference, so the module is done with its data now —
                # refill the source credit before the screen even paints
                ctx.finish(payload["frame_id"])
                yield call
            else:
                # remote display: the module still owns the frame until
                # the RPC has shipped it; only then is it 'done'
                yield call
                ctx.finish(payload["frame_id"])
            self.frames_shown += 1
            ctx.release(ref)

        return flow()


@register_module("./GestureControlModule.js")
class GestureControlModule(Module):
    """Turns recognized gestures into IoT commands (§4.2).

    "Two examples are using 'clapping' to toggle the light in the living
    room and using 'waving' to toggle a doorbell camera." A gesture must be
    seen on ``confirm_frames`` consecutive windows to fire, and a per-target
    cooldown stops one long clap from toggling the light repeatedly.
    """

    def __init__(
        self,
        bindings: dict[str, str] | None = None,
        confirm_frames: int = 3,
        cooldown_s: float = 2.0,
        rest_label: str = "stand",
    ) -> None:
        self.bindings = bindings or {
            "clap": "living_room_light",
            "wave": "doorbell_camera",
        }
        self.confirm_frames = confirm_frames
        self.cooldown_s = cooldown_s
        self.rest_label = rest_label
        self._streak_label: str | None = None
        self._streak = 0
        self._last_fired: dict[str, float] = {}
        self.triggers: list[tuple[float, str, str]] = []

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            label = payload.get("activity")
            fired = None
            if label == self._streak_label:
                self._streak += 1
            else:
                self._streak_label = label
                self._streak = 1
            if (
                label is not None
                and label != self.rest_label
                and label in self.bindings
                and self._streak >= self.confirm_frames
            ):
                target = self.bindings[label]
                last = self._last_fired.get(target, -1e9)
                if ctx.now - last >= self.cooldown_s:
                    self._last_fired[target] = ctx.now
                    try:
                        yield ctx.call_service(
                            "iot_controller",
                            {"target": target, "action": "toggle"},
                        )
                        fired = (ctx.now, label, target)
                        self.triggers.append(fired)
                        ctx.metrics.increment("gesture_triggers")
                    except Exception:
                        ctx.metrics.increment("iot_failures")
            if "frame" in payload:
                ctx.release(payload["frame"])
            ctx.finish(payload["frame_id"])

        return flow()


@register_module("./FallDetectorModule.js")
class FallDetectionModule(Module):
    """Detects falls from the pose stream (§4.3's fall detection pipeline).

    A fall is a rapid hip drop (more than ``drop_frac`` of body height
    within ``window_s``) that ends in a horizontal posture (bounding box
    wider than tall). On detection it raises an alert through the IoT
    service, once per ``realert_s``.
    """

    def __init__(
        self,
        drop_frac: float = 0.25,
        window_s: float = 1.5,
        aspect_threshold: float = 1.1,
        alert_target: str = "caregiver_alert",
        realert_s: float = 10.0,
    ) -> None:
        self.drop_frac = drop_frac
        self.window_s = window_s
        self.aspect_threshold = aspect_threshold
        self.alert_target = alert_target
        self.realert_s = realert_s
        self._history: list[tuple[float, float, float]] = []  # (t, hip_y, height)
        self._last_alert = -1e9
        self.falls_detected: list[float] = []

    def _posture(self, pose: Pose) -> tuple[float, float, float]:
        keypoints = pose.keypoints
        x0, y0 = keypoints.min(axis=0)
        x1, y1 = keypoints.max(axis=0)
        width = float(x1 - x0)
        height = float(y1 - y0)
        hip_y = float(pose.hip_center()[1])
        aspect = width / height if height > 1e-6 else float("inf")
        return hip_y, height, aspect

    def event_received(self, ctx: ModuleContext, event: ModuleEvent):
        def flow():
            payload = event.payload
            pose = Pose(payload["keypoints"], payload.get("visibility"))
            hip_y, height, aspect = self._posture(pose)
            now = payload["capture_time"]
            self._history.append((now, hip_y, height))
            cutoff = now - self.window_s
            self._history = [h for h in self._history if h[0] >= cutoff]
            is_fall = False
            if len(self._history) >= 2 and aspect >= self.aspect_threshold:
                oldest_hip = min(h[1] for h in self._history)
                reference_height = max(h[2] for h in self._history)
                drop = hip_y - oldest_hip  # y grows downward
                if reference_height > 0 and drop >= self.drop_frac * reference_height:
                    is_fall = True
            if is_fall and ctx.now - self._last_alert >= self.realert_s:
                self._last_alert = ctx.now
                self.falls_detected.append(ctx.now)
                ctx.metrics.increment("falls_detected")
                try:
                    yield ctx.call_service(
                        "iot_controller",
                        {"target": self.alert_target, "action": "on"},
                    )
                except Exception:
                    ctx.metrics.increment("iot_failures")
            if "frame" in payload:
                ctx.release(payload["frame"])
            ctx.finish(payload["frame_id"])

        return flow()
