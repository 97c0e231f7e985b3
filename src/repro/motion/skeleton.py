"""The 17-keypoint human skeleton (COCO convention).

The paper's 2D pose detector "detects a human and places a bounding box
around them. Within that bounding box, it detects 17 keypoints" (§4.1.1).
This module defines those keypoints, the limb connectivity used for
rendering, and the normalization the paper's activity recognizer applies
("(0,0) is located at the average of the left and right hips", §4.1.2).
"""

from __future__ import annotations

import numpy as np

#: COCO keypoint order.
KEYPOINT_NAMES = (
    "nose",
    "left_eye",
    "right_eye",
    "left_ear",
    "right_ear",
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hip",
    "right_hip",
    "left_knee",
    "right_knee",
    "left_ankle",
    "right_ankle",
)

NUM_KEYPOINTS = len(KEYPOINT_NAMES)

#: Index lookup by name.
KEYPOINT_INDEX = {name: i for i, name in enumerate(KEYPOINT_NAMES)}

#: Limb segments (keypoint index pairs) used for rendering and plausibility
#: checks — the standard COCO skeleton edges.
SKELETON_EDGES = (
    (0, 1), (0, 2), (1, 3), (2, 4),          # head
    (5, 6), (5, 7), (7, 9), (6, 8), (8, 10),  # arms + shoulders
    (5, 11), (6, 12), (11, 12),               # torso
    (11, 13), (13, 15), (12, 14), (14, 16),   # legs
)

LEFT_HIP = KEYPOINT_INDEX["left_hip"]
RIGHT_HIP = KEYPOINT_INDEX["right_hip"]


class Pose:
    """One person's 2D pose: a (17, 2) float array plus visibility flags.

    Coordinates are in image pixels (x to the right, y downward) unless a
    normalization has been applied.
    """

    __slots__ = ("keypoints", "visibility")

    def __init__(self, keypoints: np.ndarray, visibility: np.ndarray | None = None) -> None:
        keypoints = np.asarray(keypoints, dtype=np.float64)
        if keypoints.shape != (NUM_KEYPOINTS, 2):
            raise ValueError(f"pose must be ({NUM_KEYPOINTS}, 2), got {keypoints.shape}")
        self.keypoints = keypoints
        if visibility is None:
            visibility = np.ones(NUM_KEYPOINTS, dtype=bool)
        else:
            visibility = np.asarray(visibility, dtype=bool)
            if visibility.shape != (NUM_KEYPOINTS,):
                raise ValueError("visibility must have one flag per keypoint")
        self.visibility = visibility

    def __getitem__(self, name: str) -> np.ndarray:
        """Look a keypoint up by its COCO name."""
        return self.keypoints[KEYPOINT_INDEX[name]]

    def hip_center(self) -> np.ndarray:
        """Midpoint of the two hips — the paper's normalization origin."""
        return (self.keypoints[LEFT_HIP] + self.keypoints[RIGHT_HIP]) / 2.0

    def torso_scale(self) -> float:
        """Shoulder-midpoint to hip-midpoint distance, used for scale
        normalization so that near and far subjects compare."""
        shoulders = (self["left_shoulder"] + self["right_shoulder"]) / 2.0
        return float(np.linalg.norm(shoulders - self.hip_center()))

    def normalized(self) -> "Pose":
        """Framewise normalization per §4.1.2: translate so the hip midpoint
        is the origin, and divide by the torso scale."""
        scale = self.torso_scale()
        if scale <= 1e-9:
            scale = 1.0
        centered = (self.keypoints - self.hip_center()) / scale
        return Pose(centered, self.visibility.copy())

    def bounding_box(self, margin: float = 0.05) -> tuple[float, float, float, float]:
        """Axis-aligned (x0, y0, x1, y1) box around visible keypoints, grown
        by ``margin`` of its size on each side."""
        visible = self.keypoints[self.visibility]
        if len(visible) == 0:
            raise ValueError("no visible keypoints to box")
        x0, y0 = visible.min(axis=0)
        x1, y1 = visible.max(axis=0)
        dx, dy = (x1 - x0) * margin, (y1 - y0) * margin
        return (x0 - dx, y0 - dy, x1 + dx, y1 + dy)

    def flatten(self) -> np.ndarray:
        """The 34-element feature vector (x0, y0, x1, y1, ...)."""
        return self.keypoints.reshape(-1).copy()

    def copy(self) -> "Pose":
        return Pose(self.keypoints.copy(), self.visibility.copy())

    @property
    def wire_size(self) -> int:
        """Bytes this pose occupies in a message payload: 17 float64 pairs
        plus visibility flags and a small envelope."""
        return NUM_KEYPOINTS * 2 * 8 + NUM_KEYPOINTS + 32

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        visible = int(self.visibility.sum())
        return f"<Pose {visible}/{NUM_KEYPOINTS} visible>"

