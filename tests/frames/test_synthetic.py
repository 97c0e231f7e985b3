"""Unit tests for synthetic rendering and pixel-domain analysis."""

import numpy as np
import pytest

from repro.frames import detect_foreground_bbox
from repro.frames.synthetic import foreground_fraction, render_pose, scale_pose
from repro.motion import Squat, SubjectParams, place_in_image
from repro.motion.skeleton import Pose
from repro.motion.exercises import base_pose


def rendered_subject(width=160, height=120, t=0.0):
    subject = SubjectParams(
        height_px=height * 0.7, center_x=width / 2, ground_y=height * 0.92
    )
    pose = place_in_image(Squat(period_s=2.0).pose_at(t), subject)
    return pose, render_pose(pose, width, height)


class TestRenderPose:
    def test_shape_and_dtype(self):
        _, image = rendered_subject()
        assert image.shape == (120, 160)
        assert image.dtype == np.uint8

    def test_subject_pixels_are_bright(self):
        pose, image = rendered_subject()
        assert foreground_fraction(image) > 0.01
        # a hip keypoint should be on the torso line, hence bright
        hx, hy = pose.hip_center()
        assert image[int(hy), int(hx)] >= 120

    def test_background_is_dim(self):
        _, image = rendered_subject()
        corner = image[:10, :10]
        assert corner.max() < 120

    def test_noise_background_with_rng(self):
        pose, _ = rendered_subject()
        image = render_pose(pose, 160, 120, rng=np.random.default_rng(0))
        corner = image[:10, :10]
        assert corner.std() > 0  # noisy, not flat

    def test_offscreen_keypoints_handled(self):
        keypoints = base_pose() * 100 + np.array([500.0, 500.0])  # far off-frame
        image = render_pose(Pose(keypoints), 160, 120)
        assert foreground_fraction(image) == 0.0

    def test_invisible_limbs_not_drawn(self):
        pose, _ = rendered_subject()
        hidden = Pose(pose.keypoints, np.zeros(17, dtype=bool))
        image = render_pose(hidden, 160, 120)
        # only the head disc remains (nose position is keypoint-based)
        assert foreground_fraction(image) < 0.01


class TestDetectForegroundBbox:
    def test_box_covers_subject(self):
        pose, image = rendered_subject()
        box = detect_foreground_bbox(image)
        assert box is not None
        x0, y0, x1, y1 = box
        truth_x0, truth_y0, truth_x1, truth_y1 = pose.bounding_box(margin=0.0)
        # detected box within a few pixels of the truth box
        assert abs(x0 - truth_x0) < 8
        assert abs(x1 - truth_x1) < 8
        assert y0 <= truth_y0 + 8
        assert y1 >= truth_y1 - 8

    def test_empty_scene_returns_none(self):
        image = np.full((120, 160), 40, dtype=np.uint8)
        assert detect_foreground_bbox(image) is None

    def test_threshold_controls_sensitivity(self):
        image = np.full((10, 10), 40, dtype=np.uint8)
        image[5, 5] = 130
        assert detect_foreground_bbox(image, threshold=120) == (5, 5, 5, 5)
        assert detect_foreground_bbox(image, threshold=200) is None


class TestScalePose:
    def test_rescales_coordinates(self):
        pose = Pose(base_pose() * 100 + 200)
        scaled = scale_pose(pose, (640, 480), (160, 120))
        np.testing.assert_allclose(scaled.keypoints[:, 0], pose.keypoints[:, 0] / 4)
        np.testing.assert_allclose(scaled.keypoints[:, 1], pose.keypoints[:, 1] / 4)

    def test_identity_scale(self):
        pose = Pose(base_pose())
        scaled = scale_pose(pose, (640, 480), (640, 480))
        np.testing.assert_array_equal(scaled.keypoints, pose.keypoints)
