"""Unit tests for pose feature engineering."""

import numpy as np
import pytest

from repro.motion import Squat, SubjectParams, sample_subject_sequence
from repro.motion.skeleton import Pose
from repro.motion.exercises import base_pose
from repro.vision import WINDOW_FRAMES, window_feature
from repro.vision.features import (
    frame_feature,
    frames_to_matrix,
    normalize_framewise,
    sliding_windows,
    windows_to_matrix,
)


def pose_sequence(count=30):
    return sample_subject_sequence(
        Squat(period_s=2.0), SubjectParams(), fps=15.0, duration_s=count / 15.0
    )


class TestWindowing:
    def test_paper_window_is_15_frames(self):
        assert WINDOW_FRAMES == 15

    def test_sliding_windows_count(self):
        windows = sliding_windows(pose_sequence(30), window=15, stride=1)
        assert len(windows) == 16
        assert all(len(w) == 15 for w in windows)

    def test_stride_reduces_count(self):
        windows = sliding_windows(pose_sequence(30), window=15, stride=5)
        assert len(windows) == 4

    def test_short_sequence_yields_nothing(self):
        assert sliding_windows(pose_sequence(10), window=15) == []

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            sliding_windows(pose_sequence(20), window=0)
        with pytest.raises(ValueError):
            sliding_windows(pose_sequence(20), window=5, stride=0)


class TestFeatures:
    def test_window_feature_length(self):
        feature = window_feature(pose_sequence(15))
        assert feature.shape == (15 * 34,)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            window_feature([])

    def test_feature_is_position_invariant(self):
        """The paper's normalization makes features ignore where the subject
        stands in the image."""
        near = SubjectParams(center_x=100, ground_y=400, height_px=300)
        far = SubjectParams(center_x=500, ground_y=440, height_px=200)
        seq_near = sample_subject_sequence(Squat(period_s=2.0), near, 15.0, 1.0)
        seq_far = sample_subject_sequence(Squat(period_s=2.0), far, 15.0, 1.0)
        np.testing.assert_allclose(
            window_feature(seq_near), window_feature(seq_far), atol=1e-6
        )

    def test_normalize_framewise_centers_every_frame(self):
        normalized = normalize_framewise(pose_sequence(5))
        for pose in normalized:
            np.testing.assert_allclose(pose.hip_center(), [0, 0], atol=1e-9)

    def test_matrix_shapes(self):
        windows = sliding_windows(pose_sequence(30), window=15, stride=5)
        matrix = windows_to_matrix(windows)
        assert matrix.shape == (4, 15 * 34)
        assert windows_to_matrix([]).shape == (0, 15 * 34)

    def test_frame_feature_shape(self):
        assert frame_feature(Pose(base_pose())).shape == (34,)

    def test_frames_to_matrix(self):
        assert frames_to_matrix(pose_sequence(8)).shape == (8, 34)
        assert frames_to_matrix([]).shape == (0, 34)
