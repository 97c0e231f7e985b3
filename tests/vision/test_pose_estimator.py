"""Unit tests for the pose estimator."""

import numpy as np
import pytest

from repro.frames import SyntheticCamera, VideoFrame
from repro.motion import Squat
from repro.vision import PoseEstimator, PoseNoiseModel


def annotated_frame(t=0.3):
    return SyntheticCamera("phone", Squat()).capture(1, t)


class TestEstimation:
    def test_detects_subject_in_annotated_frame(self):
        estimator = PoseEstimator(rng=np.random.default_rng(1))
        result = estimator.estimate(annotated_frame())
        assert result.detected
        assert result.bbox is not None
        assert result.pose is not None
        assert 0.0 <= result.score <= 1.0

    def test_keypoints_near_truth(self):
        frame = annotated_frame()
        estimator = PoseEstimator(
            PoseNoiseModel(sigma_frac=0.005, dropout_prob=0.0, miss_prob=0.0),
            rng=np.random.default_rng(1),
        )
        pose = estimator.estimate(frame).require_pose()
        error = np.linalg.norm(pose.keypoints - frame.truth.keypoints, axis=1)
        assert error.mean() < 6.0  # a few pixels on a ~330 px subject

    def test_empty_scene_is_a_miss(self):
        frame = VideoFrame(frame_id=1, source="cam", capture_time=0.0)
        estimator = PoseEstimator(rng=np.random.default_rng(0))
        result = estimator.estimate(frame)
        assert not result.detected
        with pytest.raises(ValueError):
            result.require_pose()

    def test_miss_probability_respected(self):
        estimator = PoseEstimator(
            PoseNoiseModel(miss_prob=1.0), rng=np.random.default_rng(0)
        )
        assert not estimator.estimate(annotated_frame()).detected
        assert estimator.misses == 1

    def test_dropout_marks_keypoints_invisible(self):
        estimator = PoseEstimator(
            PoseNoiseModel(dropout_prob=0.5, miss_prob=0.0),
            rng=np.random.default_rng(2),
        )
        pose = estimator.estimate(annotated_frame()).require_pose()
        assert not pose.visibility.all()
        assert pose.visibility.any()

    def test_deterministic_given_seed(self):
        frame = annotated_frame()
        a = PoseEstimator(rng=np.random.default_rng(5)).estimate(frame)
        b = PoseEstimator(rng=np.random.default_rng(5)).estimate(frame)
        np.testing.assert_array_equal(
            a.require_pose().keypoints, b.require_pose().keypoints
        )

    def test_processing_counter(self):
        estimator = PoseEstimator(rng=np.random.default_rng(0))
        for _ in range(3):
            estimator.estimate(annotated_frame())
        assert estimator.frames_processed == 3
