"""Object detection, face detection and image classification services
(§2.2's service catalog)."""

from __future__ import annotations

from typing import Any

from ...errors import ServiceError
from ...frames.frame import VideoFrame
from ...vision.object_detector import (
    ColorHistogramClassifier,
    ObjectDetector,
    detect_face_region,
)
from ..base import Service, ServiceCallContext


def _require_frame(payload: Any, service: str) -> VideoFrame:
    frame = payload.get("frame") if isinstance(payload, dict) else None
    if not isinstance(frame, VideoFrame):
        raise ServiceError(f"{service} expects {{'frame': VideoFrame}}")
    return frame


class ObjectDetectionService(Service):
    """Color-blob object detection on a frame's pixels.

    Request: ``{"frame": VideoFrame}`` (pixels required).
    Response: ``{"detections": [{"label", "bbox", "score"}, ...]}``.
    """

    name = "object_detector"
    reference_cost_s = 0.035
    default_port = 7005

    def __init__(self) -> None:
        self.detector = ObjectDetector()

    def handle(self, payload: Any, ctx: ServiceCallContext) -> dict[str, Any]:
        frame = _require_frame(payload, self.name)
        if frame.pixels is None or frame.pixels.ndim != 3:
            raise ServiceError("object_detector needs rendered RGB pixels")
        detections = self.detector.detect(frame.pixels)
        return {
            "frame_id": frame.frame_id,
            "detections": [
                {"label": d.label, "bbox": d.bbox.as_tuple(), "score": d.score}
                for d in detections
            ],
        }


class FaceDetectionService(Service):
    """Head-region detection on a grayscale frame.

    Request: ``{"frame": VideoFrame}``.
    Response: ``{"found": bool, "bbox"?: tuple}``.
    """

    name = "face_detector"
    reference_cost_s = 0.018
    default_port = 7006

    def handle(self, payload: Any, ctx: ServiceCallContext) -> dict[str, Any]:
        frame = _require_frame(payload, self.name)
        if frame.pixels is None:
            raise ServiceError("face_detector needs pixels")
        region = detect_face_region(frame.pixels)
        if region is None:
            return {"frame_id": frame.frame_id, "found": False}
        return {"frame_id": frame.frame_id, "found": True, "bbox": region.as_tuple()}


class ImageClassificationService(Service):
    """Whole-frame classification with a pretrained histogram model.

    Request: ``{"frame": VideoFrame}`` (RGB pixels required).
    Response: ``{"label": str, "score": float}``.
    """

    name = "image_classifier"
    reference_cost_s = 0.014
    default_port = 7007

    def __init__(self, classifier: ColorHistogramClassifier) -> None:
        if not classifier.classes:
            raise ServiceError("image classifier needs a fitted model")
        self.classifier = classifier

    def handle(self, payload: Any, ctx: ServiceCallContext) -> dict[str, Any]:
        frame = _require_frame(payload, self.name)
        if frame.pixels is None or frame.pixels.ndim != 3:
            raise ServiceError("image_classifier needs RGB pixels")
        label, score = self.classifier.classify(frame.pixels)
        return {"frame_id": frame.frame_id, "label": label, "score": score}
