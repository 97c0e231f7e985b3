"""The display service: the overlay frame the TV shows (Fig. 3).

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
    """One output frame as shown on screen: what its overlay carries."""

    frame_id: int
    shown_at: float
    capture_time: float
    label: str | None = None
    reps: int | None = None
    keypoints: np.ndarray | None = None


@dataclass(slots=True)
class DisplaySink:
    """Where shown frames land (the screen, or a test probe)."""

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
    """Shows frame + skeleton + activity label + rep count.

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
        shown = DisplayedFrame(
            frame_id=frame.frame_id,
            shown_at=ctx.now,
            capture_time=frame.capture_time,
            label=payload.get("label"),
            reps=payload.get("reps"),
            keypoints=None if keypoints is None else np.asarray(keypoints),
        )
        self.sink.show(shown)
        return {"shown": True, "frame_id": frame.frame_id}
