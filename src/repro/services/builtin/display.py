"""The display service: composites the overlay frame the TV shows (Fig. 3).

The fitness app "show[s] frames with rich information including the user
skeleton and the number of exercise reps". Rendering to a screen is output,
not state; the sink object records what was shown so tests and benchmarks
can assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ...errors import ServiceError
from ...frames.frame import VideoFrame
from ..base import Service, ServiceCallContext


@dataclass(slots=True)
class DisplayedFrame:
    """One composited output frame as shown on screen."""

    frame_id: int
    shown_at: float
    capture_time: float
    label: str | None = None
    reps: int | None = None
    keypoints: np.ndarray | None = None
    #: The actual composited image (only when the frame carried pixels).
    composited: np.ndarray | None = None

    @property
    def glass_to_glass_s(self) -> float:
        """Capture-to-display latency for this frame."""
        return self.shown_at - self.capture_time


#: Gray level of the skeleton overlay marks.
OVERLAY_LEVEL = 255


def composite_overlay(frame: VideoFrame, keypoints: np.ndarray) -> np.ndarray:
    """Burn the detected keypoints into the frame's pixels (Fig. 3's
    skeleton overlay). Keypoints are in full-resolution coordinates; the
    pixel buffer may be a reduced render, so coordinates are rescaled."""
    assert frame.pixels is not None
    image = frame.pixels.copy()
    render_h, render_w = image.shape[:2]
    sx = render_w / frame.width
    sy = render_h / frame.height
    for x, y in np.asarray(keypoints, dtype=np.float64):
        px = int(round(x * sx))
        py = int(round(y * sy))
        if 0 <= px < render_w and 0 <= py < render_h:
            y0, y1 = max(0, py - 1), min(render_h, py + 2)
            x0, x1 = max(0, px - 1), min(render_w, px + 2)
            image[y0:y1, x0:x1] = OVERLAY_LEVEL
    return image


@dataclass(slots=True)
class DisplaySink:
    """Where composited frames land (the screen, or a test probe)."""

    keep_last: int = 4096
    frames: list[DisplayedFrame] = field(default_factory=list)

    def show(self, frame: DisplayedFrame) -> None:
        self.frames.append(frame)
        if len(self.frames) > self.keep_last:
            del self.frames[0]

    @property
    def count(self) -> int:
        return len(self.frames)


class DisplayService(Service):
    """Composites frame + skeleton + activity label + rep count.

    Request: ``{"frame": VideoFrame, "keypoints"?, "label"?, "reps"?}``.
    Response: ``{"shown": True, "frame_id": int}``.
    """

    name = "display"
    reference_cost_s = 0.003
    default_port = 7004

    def __init__(self, sink: DisplaySink | None = None) -> None:
        self.sink = sink or DisplaySink()

    def handle(self, payload: Any, ctx: ServiceCallContext) -> dict[str, Any]:
        if not isinstance(payload, dict):
            raise ServiceError("display expects a dict payload")
        frame = payload.get("frame")
        if not isinstance(frame, VideoFrame):
            raise ServiceError("display expects {'frame': VideoFrame, ...}")
        keypoints = payload.get("keypoints")
        composited = None
        if frame.pixels is not None and keypoints is not None:
            composited = composite_overlay(frame, np.asarray(keypoints))
        shown = DisplayedFrame(
            frame_id=frame.frame_id,
            shown_at=ctx.now,
            capture_time=frame.capture_time,
            label=payload.get("label"),
            reps=payload.get("reps"),
            keypoints=None if keypoints is None else np.asarray(keypoints),
            composited=composited,
        )
        self.sink.show(shown)
        return {"shown": True, "frame_id": frame.frame_id}
