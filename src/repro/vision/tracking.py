"""Greedy IoU multi-object tracking.

Backs the "object tracking" service from §2.2: detections from consecutive
frames are associated to persistent track ids by best IoU match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .bbox import BBox
from .object_detector import Detection


@dataclass(slots=True)
class Track:
    """A persistent object identity across frames."""

    track_id: int
    label: str
    bbox: BBox
    hits: int = 1
    misses: int = 0
    history: list[BBox] = field(default_factory=list)

    def update(self, detection: Detection) -> None:
        self.history.append(self.bbox)
        self.bbox = detection.bbox
        self.label = detection.label
        self.hits += 1
        self.misses = 0


class IoUTracker:
    """Frame-to-frame greedy association by IoU.

    Args:
        iou_threshold: minimum overlap to continue a track.
        max_misses: frames a track survives without a matching detection.
    """

    def __init__(self, iou_threshold: float = 0.3, max_misses: int = 5) -> None:
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in (0, 1]")
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self._ids = itertools.count(1)
        self.tracks: list[Track] = []
        self.frames_processed = 0

    def update(self, detections: list[Detection]) -> list[Track]:
        """Consume one frame's detections; returns the live tracks."""
        self.frames_processed += 1
        # score all (track, detection) pairs, match greedily best-first
        pairs = []
        for t_index, track in enumerate(self.tracks):
            for d_index, det in enumerate(detections):
                iou = track.bbox.iou(det.bbox)
                if iou >= self.iou_threshold:
                    pairs.append((iou, t_index, d_index))
        pairs.sort(reverse=True)
        matched_tracks: set[int] = set()
        matched_dets: set[int] = set()
        for iou, t_index, d_index in pairs:
            if t_index in matched_tracks or d_index in matched_dets:
                continue
            self.tracks[t_index].update(detections[d_index])
            matched_tracks.add(t_index)
            matched_dets.add(d_index)
        # unmatched tracks age; stale ones die
        survivors = []
        for t_index, track in enumerate(self.tracks):
            if t_index not in matched_tracks:
                track.misses += 1
            if track.misses <= self.max_misses:
                survivors.append(track)
        self.tracks = survivors
        # unmatched detections start new tracks
        for d_index, det in enumerate(detections):
            if d_index not in matched_dets:
                self.tracks.append(
                    Track(track_id=next(self._ids), label=det.label, bbox=det.bbox)
                )
        return self.tracks
