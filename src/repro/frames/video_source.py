"""The paced video source and its no-queue flow control.

The paper's data-flow rule (§2.3): *no queues inside the pipeline*. The
source holds exactly one credit; it sends a frame when it has credit, and
regains credit only when the final module signals completion. Camera frames
that arrive while the pipeline is busy are dropped **at the source**, wasting
no downstream computation.

``mode="push"`` disables the credit gate — every captured frame enters the
pipeline — which is the queued architecture the flow-control ablation
(`bench_ablation_flowcontrol.py`) measures against.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..motion.exercises import MotionModel
from ..motion.skeleton import Pose
from ..motion.trajectory import SubjectParams, subject_pose
from ..sim.kernel import Kernel
from .frame import VideoFrame


class SyntheticCamera:
    """A frame factory: a subject performing a motion in front of a camera.

    Frames carry only the annotated ground-truth pose, no pixels: the pose
    service adds estimation noise and simulated compute (DESIGN.md §2).
    A frame's pose is a pure function of the motion, the subject and the
    capture time, so it is bound at capture and computed only when
    something reads ``frame.truth`` (most captures at a busy source are
    dropped unread).

    ``freeze=True`` models a **static scene** (an empty room, a parked
    subject): the content of the first capture is reused for every
    subsequent frame, so all frames are byte-identical in content while
    still carrying fresh ids and timestamps — the workload the frame-dedup
    and result-cache fast path is built for.
    """

    def __init__(
        self,
        device: str,
        motion: MotionModel,
        subject: SubjectParams | None = None,
        width: int = 640,
        height: int = 480,
        freeze: bool = False,
    ) -> None:
        self.device = device
        self.motion = motion
        self.subject = subject or SubjectParams()
        self.width = width
        self.height = height
        self.freeze = freeze
        self._frozen: Pose | None = None

    def set_resolution(self, width: int, height: int) -> None:
        """Change the capture resolution; takes effect on the next frame.

        The SLO controller's resolution rung degrades (and later restores)
        frame size through this — smaller frames shrink both the modelled
        JPEG wire size and the encode/decode compute charged per hop."""
        if width < 16 or height < 16:
            raise ConfigError("resolution must be at least 16x16")
        self.width = int(width)
        self.height = int(height)
        # a frozen scene captured at the old size must not leak through
        self._frozen = None

    def capture(self, frame_id: int, t: float) -> VideoFrame:
        """Produce the frame the camera sees at simulated time *t*."""
        truth = None
        if self.freeze:
            if self._frozen is None:
                self._frozen = subject_pose(self.motion, self.subject, t)
            truth = self._frozen
        frame = VideoFrame(
            frame_id=frame_id,
            source=self.device,
            capture_time=t,
            width=self.width,
            height=self.height,
            channels=3,
            truth=truth,
            metadata={"activity": self.motion.name},
        )
        if not self.freeze:
            frame._defer_truth(partial(subject_pose, self.motion, self.subject, t))
        return frame


class VideoSource:
    """A kernel process that captures frames at a fixed rate and emits them
    through the credit gate.

    Args:
        kernel: the event kernel.
        camera: frame factory (anything with ``capture(frame_id, t)``).
        fps: camera capture rate.
        deliver: callback invoked with each frame admitted to the pipeline.
        mode: ``"signal"`` (paper: one credit, refilled by the sink) or
            ``"push"`` (no gate; the queued baseline).
        jitter_cv: coefficient of variation on the inter-frame interval.
        rng: RNG for capture jitter (required if ``jitter_cv > 0``).
        on_drop: callback invoked with each frame dropped at the source
            (a buffered frame replaced by a fresher capture). Lets the
            pipeline account for frames that never
            complete — only frames the pipeline has *seen* matter, so most
            sources leave this unset; the streaming module wires it to
            frame accounting.
    """

    def __init__(
        self,
        kernel: Kernel,
        camera: SyntheticCamera | Callable[[int, float], VideoFrame],
        fps: float,
        deliver: Callable[[VideoFrame], None],
        mode: str = "signal",
        jitter_cv: float = 0.0,
        rng: np.random.Generator | None = None,
        on_drop: Callable[[VideoFrame], None] | None = None,
    ) -> None:
        if fps <= 0:
            raise ConfigError("fps must be positive")
        if mode not in ("signal", "push"):
            raise ConfigError(f"unknown flow mode {mode!r}")
        if jitter_cv > 0 and rng is None:
            raise ConfigError("jitter requires an rng")
        self.kernel = kernel
        self.camera = camera
        self.fps = fps
        self.deliver = deliver
        self.mode = mode
        self.jitter_cv = jitter_cv
        self.rng = rng
        self.on_drop = on_drop
        self._credits = 1
        self._pending: VideoFrame | None = None
        self._running = False
        self._paused = False
        # statistics
        self.captured_count = 0
        self.emitted_count = 0
        self.dropped_count = 0

    # -- control ---------------------------------------------------------------
    def start(self, duration_s: float | None = None, max_frames: int | None = None) -> None:
        """Begin capturing; stops after *duration_s* or *max_frames*."""
        if self._running:
            raise ConfigError("source already started")
        self._running = True
        self.kernel.process(
            self._capture_loop(duration_s, max_frames), name="video-source"
        )

    def stop(self) -> None:
        self._running = False

    def set_fps(self, fps: float) -> None:
        """Change the capture rate; takes effect from the next tick (the
        loop re-reads ``fps`` every interval)."""
        if fps <= 0:
            raise ConfigError("fps must be positive")
        self.fps = float(fps)

    @property
    def paused(self) -> bool:
        return self._paused

    def set_paused(self, paused: bool) -> None:
        """Pause (or resume) capture without tearing the loop down.

        While paused the loop keeps ticking but captures nothing, so no
        frames enter the pipeline and no source drops accrue; resuming
        restarts capture on the next tick. This is the SLO controller's
        last-resort 'drop the pipeline' rung — reversible, unlike
        :meth:`stop`. Paused time still counts toward ``duration_s``."""
        self._paused = bool(paused)

    def grant_credit(self) -> None:
        """The sink's 'done, send the next frame' signal (§2.3).

        If a fresher camera frame is already buffered, it enters the
        pipeline immediately (the camera runs ahead of the pipeline at high
        source rates — throughput tracks pipeline latency, not the capture
        tick). Otherwise one credit is stored for the next capture. Credit
        is capped at one, keeping at most one frame in flight.
        """
        if self._pending is not None:
            frame, self._pending = self._pending, None
            self._emit(frame)
        else:
            self._credits = 1

    def _emit(self, frame: VideoFrame) -> None:
        self.emitted_count += 1
        self.deliver(frame)

    def _drop(self, frame: VideoFrame) -> None:
        self.dropped_count += 1
        if self.on_drop is not None:
            self.on_drop(frame)

    # -- engine ------------------------------------------------------------------
    def _interval(self) -> float:
        base = 1.0 / self.fps
        if self.jitter_cv <= 0:
            return base
        # mild capture jitter, clipped to stay causal
        assert self.rng is not None
        return max(base * 0.25, float(self.rng.normal(base, base * self.jitter_cv)))

    def _capture_loop(self, duration_s: float | None, max_frames: int | None):
        start_time = self.kernel.now
        frame_id = 0
        while self._running:
            elapsed = self.kernel.now - start_time
            if duration_s is not None and elapsed >= duration_s - 1e-9:
                break
            if self._paused:
                # keep ticking (cheaply, without consuming jitter draws) so
                # resume takes effect within one base interval
                yield 1.0 / self.fps
                continue
            if max_frames is not None and frame_id >= max_frames:
                break
            frame_id += 1
            capture = getattr(self.camera, "capture", self.camera)
            frame = capture(frame_id, self.kernel.now)
            self.captured_count += 1
            if self.mode == "push":
                self._emit(frame)
            elif self._credits > 0:
                self._credits -= 1
                self._emit(frame)
            else:
                # no credit: buffer the freshest frame; the one it replaces
                # is dropped at the source (§2.3)
                if self._pending is not None:
                    self._drop(self._pending)
                self._pending = frame
            yield self._interval()
        self._running = False
