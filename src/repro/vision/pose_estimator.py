"""The 2D pose detector (§4.1.1).

"The 2D pose detector first detects a human and places a bounding box
around them. Within that bounding box, it detects 17 keypoints."

Both stages — the part a CNN does in the paper — are substituted by the
synthetic camera's annotated ground truth: the box is the truth's extent,
the keypoints are the truth perturbed with a calibrated noise model
(Gaussian jitter, keypoint dropout, occasional whole-person misses), per
the substitution policy in DESIGN.md §2. Compute *time* is charged by
the service layer, not here; these functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frames.frame import VideoFrame
from ..motion.skeleton import NUM_KEYPOINTS, Pose
from .bbox import BBox


@dataclass(frozen=True, slots=True)
class PoseNoiseModel:
    """How far the estimator's keypoints stray from the truth.

    Attributes:
        sigma_frac: keypoint jitter std as a fraction of subject height.
        dropout_prob: per-keypoint chance of being marked invisible.
        miss_prob: chance the detector misses the person entirely.
    """

    sigma_frac: float = 0.008
    dropout_prob: float = 0.01
    miss_prob: float = 0.002


@dataclass(slots=True)
class PoseResult:
    """One frame's detection: box + keypoints, or a miss."""

    detected: bool
    bbox: BBox | None = None
    pose: Pose | None = None
    score: float = 0.0

    def require_pose(self) -> Pose:
        if self.pose is None:
            raise ValueError("no pose detected in this frame")
        return self.pose


class PoseEstimator:
    """Framewise 17-keypoint pose estimation."""

    def __init__(
        self,
        noise: PoseNoiseModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.noise = noise or PoseNoiseModel()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.frames_processed = 0
        self.misses = 0

    def estimate(self, frame: VideoFrame) -> PoseResult:
        """Detect the subject and estimate keypoints for one frame."""
        self.frames_processed += 1
        if frame.truth is None:
            # no subject in the scene: an honest no-detection
            return PoseResult(detected=False)
        if self.noise.miss_prob > 0 and self.rng.random() < self.noise.miss_prob:
            self.misses += 1
            return PoseResult(detected=False)

        bbox = self._detect_bbox(frame)
        pose = self._estimate_keypoints(frame)
        score = float(np.clip(self.rng.normal(0.9, 0.05), 0.0, 1.0))
        return PoseResult(detected=True, bbox=bbox, pose=pose, score=score)

    # -- stages -----------------------------------------------------------------
    def _detect_bbox(self, frame: VideoFrame) -> BBox:
        """Stage 1: human detection, from the annotated keypoints."""
        assert frame.truth is not None
        x0, y0, x1, y1 = frame.truth.bounding_box(margin=0.05)
        return BBox(x0, y0, x1, y1)

    def _estimate_keypoints(self, frame: VideoFrame) -> Pose:
        """Stage 2: keypoint regression (truth + calibrated noise)."""
        truth = frame.truth
        assert truth is not None
        height = truth.keypoints[:, 1].max() - truth.keypoints[:, 1].min()
        sigma = max(0.5, self.noise.sigma_frac * float(height))
        keypoints = truth.keypoints + self.rng.normal(0.0, sigma, (NUM_KEYPOINTS, 2))
        visibility = self.rng.random(NUM_KEYPOINTS) >= self.noise.dropout_prob
        # dropped keypoints get a larger, unreliable error
        if not visibility.all():
            extra = self.rng.normal(0.0, sigma * 6.0, (NUM_KEYPOINTS, 2))
            keypoints[~visibility] += extra[~visibility]
        return Pose(keypoints, visibility)
