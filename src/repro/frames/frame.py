"""Video frames and frame references.

A :class:`VideoFrame` is what the camera produces: pixel data (optional in
annotated mode), capture metadata, and — because our camera is synthetic —
the ground-truth pose used to generate it. A :class:`FrameRef` is the small
token modules pass around *instead of* the frame when they are co-located,
the paper's "rather than copying the full image frames to the module, we
pass on a reference id" design (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..motion.skeleton import Pose


@dataclass(slots=True)
class VideoFrame:
    """One captured frame.

    Attributes:
        frame_id: monotone id assigned by the source.
        source: name of the producing device/camera.
        capture_time: simulated capture timestamp (seconds).
        width/height/channels: image geometry.
        pixels: the image as a (height, width) or (height, width, channels)
            uint8 array, or ``None`` for an annotated pose-camera frame.
        truth: ground-truth pose of the subject in image coordinates, if a
            subject is in view (synthetic camera annotation). A camera may
            defer it: it is then computed on its first read, and kept.
        metadata: free-form extras (exercise label, subject id, ...).
    """

    frame_id: int
    source: str
    capture_time: float
    width: int = 640
    height: int = 480
    channels: int = 3
    pixels: np.ndarray | None = None
    truth: Pose | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    #: Memoized ``(digest_hex, pixels_identity)`` pair maintained by
    #: :mod:`repro.frames.digest` — excluded from equality/repr so caching
    #: never changes frame semantics. Identity of the pixels array is part
    #: of the key, so swapping in a new array invalidates automatically;
    #: nothing mutates a frame's content in place.
    _digest_cache: "tuple[str, int | None] | None" = field(
        default=None, repr=False, compare=False
    )
    #: What computes ``truth`` on its first read while its slot is empty
    #: (:meth:`_defer_truth`).
    _truth_source: "Callable[[], Pose | None] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getattr__(self, name: str) -> Any:
        # reached only for an empty slot: a deferred ``truth`` is computed
        # here once, and read from its slot from then on
        if name == "truth" and self._truth_source is not None:
            self.truth = truth = self._truth_source()
            self._truth_source = None
            return truth
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _defer_truth(self, compute: "Callable[[], Pose | None]") -> None:
        """Leave ``truth`` to ``compute()``, called on its first read."""
        del self.truth
        self._truth_source = compute

    @property
    def raw_size(self) -> int:
        """Uncompressed size in bytes."""
        return self.width * self.height * self.channels

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rendered = "rendered" if self.pixels is not None else "annotated"
        return (
            f"<VideoFrame #{self.frame_id} {self.width}x{self.height}"
            f" t={self.capture_time:.3f} {rendered}>"
        )


@dataclass(frozen=True, slots=True)
class FrameRef:
    """A reference id standing in for a frame stored in a device-local
    :class:`~repro.frames.framestore.FrameStore`.

    Only a few dozen bytes on the wire (vs hundreds of KB for the frame),
    but only resolvable on the device that holds the store.
    """

    device: str
    ref_id: int

    #: Wire-size hint consumed by :func:`repro.net.wire.payload_size`.
    @property
    def wire_size(self) -> int:
        return 24

    def __str__(self) -> str:
        return f"frame-ref:{self.device}/{self.ref_id}"
