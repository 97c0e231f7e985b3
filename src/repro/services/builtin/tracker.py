"""The object tracking service (§2.2 lists "object tracking" in the
service catalog).

Tracking is inherently stateful, so this service uses the paper's
statelessness trick in its purest form: the *caller* ships the previous
track state with every request ("these services all receive needed data as
input so they do not require saving state"), and the reply carries the
updated state back.
"""

from __future__ import annotations

from typing import Any

from ...errors import ServiceError
from ...vision.bbox import BBox
from ...vision.object_detector import Detection
from ...vision.tracking import IoUTracker, Track
from ..base import Service, ServiceCallContext


def _serialize_track(track: Track) -> dict[str, Any]:
    return {
        "track_id": track.track_id,
        "label": track.label,
        "bbox": track.bbox.as_tuple(),
        "hits": track.hits,
        "misses": track.misses,
    }


def _deserialize_track(data: dict[str, Any]) -> Track:
    return Track(
        track_id=int(data["track_id"]),
        label=str(data["label"]),
        bbox=BBox(*data["bbox"]),
        hits=int(data.get("hits", 1)),
        misses=int(data.get("misses", 0)),
    )


class ObjectTrackingService(Service):
    """Associates detections with caller-supplied tracks by IoU.

    Request::

        {"detections": [{"label", "bbox", "score"}, ...],
         "tracks": [serialized tracks from the previous reply],
         "next_track_id": int,
         "iou_threshold"?: float, "max_misses"?: int}

    Response: ``{"tracks": [...], "next_track_id": int}``.
    """

    name = "object_tracker"
    reference_cost_s = 0.006
    default_port = 7010

    def handle(self, payload: Any, ctx: ServiceCallContext) -> dict[str, Any]:
        if not isinstance(payload, dict) or "detections" not in payload:
            raise ServiceError(
                "object_tracker expects {'detections', 'tracks', 'next_track_id'}"
            )
        detections = [
            Detection(str(d["label"]), BBox(*d["bbox"]), float(d.get("score", 1.0)))
            for d in payload["detections"]
        ]
        tracker = IoUTracker(
            iou_threshold=float(payload.get("iou_threshold", 0.3)),
            max_misses=int(payload.get("max_misses", 5)),
        )
        tracker.tracks = [_deserialize_track(t) for t in payload.get("tracks", [])]
        # resume id allocation where the caller's state left off
        next_id = int(payload.get("next_track_id", 1))
        import itertools

        tracker._ids = itertools.count(next_id)
        tracks = tracker.update(detections)
        highest = max([next_id - 1] + [t.track_id for t in tracks])
        return {
            "tracks": [_serialize_track(t) for t in tracks],
            "next_track_id": highest + 1,
        }
