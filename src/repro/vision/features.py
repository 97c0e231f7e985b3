"""Pose feature engineering shared by the recognizers.

Implements exactly the preprocessing in §4.1.2: "we take a list of 15
consecutive frames … we normalize the coordinates framewise so that (0,0)
is located at the average of the left and right hips of the human in that
frame."
"""

from __future__ import annotations

import numpy as np

from ..motion.skeleton import NUM_KEYPOINTS, Pose

#: The paper's window length.
WINDOW_FRAMES = 15


def window_feature(poses: list[Pose]) -> np.ndarray:
    """Flatten a window of poses into one feature vector.

    Each pose is normalized framewise, then the (T, 17, 2) block is reshaped
    to length T*34 — the concatenation of the poses' :func:`frame_feature`
    rows. Raises if the window is empty.
    """
    if not poses:
        raise ValueError("empty pose window")
    return np.concatenate([frame_feature(p) for p in poses])


def sliding_windows(
    poses: list[Pose], window: int = WINDOW_FRAMES, stride: int = 1
) -> list[list[Pose]]:
    """All length-*window* slices at the given stride."""
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")
    return [
        poses[i : i + window]
        for i in range(0, len(poses) - window + 1, stride)
    ]


def windows_to_matrix(windows: list[list[Pose]]) -> np.ndarray:
    """Stack window features into an (n, window*34) matrix.

    Overlapping windows share ``Pose`` objects; each one is normalized once
    per call, not once per window it sits in.
    """
    if not windows:
        return np.zeros((0, WINDOW_FRAMES * NUM_KEYPOINTS * 2))
    # keyed by id(): every pose stays alive in *windows* for the call
    rows: dict[int, np.ndarray] = {}
    for w in windows:
        if not w:
            raise ValueError("empty pose window")
        for pose in w:
            if id(pose) not in rows:
                rows[id(pose)] = frame_feature(pose)
    return np.stack([np.concatenate([rows[id(p)] for p in w]) for w in windows])


def frame_feature(pose: Pose) -> np.ndarray:
    """Single-frame normalized feature: one row of a window feature, and
    the rep counter's per-frame input."""
    return pose.normalized().flatten()


def frames_to_matrix(poses: list[Pose]) -> np.ndarray:
    """Stack per-frame features into an (n, 34) matrix."""
    if not poses:
        return np.zeros((0, NUM_KEYPOINTS * 2))
    return np.stack([frame_feature(p) for p in poses])
