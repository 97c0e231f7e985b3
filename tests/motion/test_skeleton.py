"""Unit tests for the skeleton model."""

import numpy as np
import pytest

from repro.motion import KEYPOINT_INDEX, NUM_KEYPOINTS, SKELETON_EDGES, Pose
from repro.motion.exercises import base_pose
from repro.motion.skeleton import KEYPOINT_NAMES


class TestConventions:
    def test_seventeen_keypoints(self):
        assert NUM_KEYPOINTS == 17
        assert len(KEYPOINT_NAMES) == 17

    def test_index_matches_names(self):
        for i, name in enumerate(KEYPOINT_NAMES):
            assert KEYPOINT_INDEX[name] == i

    def test_edges_reference_valid_keypoints(self):
        for a, b in SKELETON_EDGES:
            assert 0 <= a < NUM_KEYPOINTS
            assert 0 <= b < NUM_KEYPOINTS
            assert a != b


class TestPose:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            Pose(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            Pose(np.zeros((17, 3)))

    def test_visibility_validated(self):
        with pytest.raises(ValueError):
            Pose(np.zeros((17, 2)), np.ones(5, dtype=bool))

    def test_lookup_by_name(self):
        pose = Pose(base_pose())
        np.testing.assert_allclose(pose["nose"], [0.0, -0.75])

    def test_hip_center_of_base_pose_is_origin(self):
        pose = Pose(base_pose())
        np.testing.assert_allclose(pose.hip_center(), [0.0, 0.0], atol=1e-12)

    def test_torso_scale_positive(self):
        assert Pose(base_pose()).torso_scale() == pytest.approx(0.5, abs=0.05)

    def test_normalized_centers_hips_and_scales_torso(self):
        shifted = Pose(base_pose() * 37.0 + np.array([100.0, 200.0]))
        normalized = shifted.normalized()
        np.testing.assert_allclose(normalized.hip_center(), [0.0, 0.0], atol=1e-9)
        assert normalized.torso_scale() == pytest.approx(1.0)

    def test_normalization_is_translation_and_scale_invariant(self):
        base = Pose(base_pose()).normalized()
        transformed = Pose(base_pose() * 12.0 + np.array([-50.0, 3.0])).normalized()
        np.testing.assert_allclose(base.keypoints, transformed.keypoints, atol=1e-9)

    def test_degenerate_scale_guard(self):
        pose = Pose(np.zeros((17, 2)))  # all keypoints coincide
        normalized = pose.normalized()  # must not divide by zero
        assert np.isfinite(normalized.keypoints).all()

    def test_bounding_box_contains_visible_keypoints(self):
        pose = Pose(base_pose())
        x0, y0, x1, y1 = pose.bounding_box(margin=0.0)
        assert x0 == pytest.approx(pose.keypoints[:, 0].min())
        assert y1 == pytest.approx(pose.keypoints[:, 1].max())

    def test_bounding_box_ignores_invisible_keypoints(self):
        keypoints = base_pose()
        keypoints[0] = (1000.0, 1000.0)  # wild nose position
        visibility = np.ones(17, dtype=bool)
        visibility[0] = False
        pose = Pose(keypoints, visibility)
        _, _, x1, y1 = pose.bounding_box(margin=0.0)
        assert x1 < 1000 and y1 < 1000

    def test_bounding_box_requires_visible_keypoints(self):
        pose = Pose(base_pose(), np.zeros(17, dtype=bool))
        with pytest.raises(ValueError):
            pose.bounding_box()

    def test_flatten_shape_and_copy(self):
        pose = Pose(base_pose())
        flat = pose.flatten()
        assert flat.shape == (34,)
        flat[0] = 999.0
        assert pose.keypoints[0, 0] != 999.0

    def test_copy_is_independent(self):
        pose = Pose(base_pose())
        dup = pose.copy()
        dup.keypoints[0, 0] = 999.0
        assert pose.keypoints[0, 0] != 999.0
