"""Unit tests for motion models."""

import numpy as np
import pytest

from repro.motion import Squat, make_model
from repro.motion.exercises import (
    MODEL_BY_NAME,
    Clap,
    Fall,
    JumpingJack,
    Stand,
    Wave,
)
from repro.motion.exercises import base_pose
from repro.motion.skeleton import KEYPOINT_INDEX as KP


class TestModelBasics:
    @pytest.mark.parametrize("name", sorted(MODEL_BY_NAME))
    def test_every_model_produces_valid_poses(self, name):
        model = make_model(name)
        for t in np.linspace(0.0, 2 * model.period_s, 9):
            pose = model.pose_at(float(t))
            assert np.isfinite(pose.keypoints).all()

    @pytest.mark.parametrize("name", sorted(MODEL_BY_NAME))
    def test_models_are_deterministic(self, name):
        a = make_model(name).pose_at(0.7).keypoints
        b = make_model(name).pose_at(0.7).keypoints
        np.testing.assert_array_equal(a, b)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_model("backflip")

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            Squat(period_s=0)

    def test_periodic_models_wrap(self):
        model = Squat(period_s=2.0)
        np.testing.assert_allclose(
            model.pose_at(0.3).keypoints, model.pose_at(2.3).keypoints, atol=1e-12
        )

    def test_sample_length(self):
        assert len(Squat().sample(fps=10, duration_s=3.0)) == 30


class TestMotionShapes:
    def test_squat_lowers_hips_at_midphase(self):
        model = Squat(period_s=2.0)
        top = model.pose_at(0.0)
        bottom = model.pose_at(1.0)  # mid-cycle
        assert bottom.hip_center()[1] > top.hip_center()[1] + 0.2  # y is down

    def test_squat_keeps_ankles_planted(self):
        model = Squat(period_s=2.0)
        top = model.pose_at(0.0)
        bottom = model.pose_at(1.0)
        for side in ("left_ankle", "right_ankle"):
            np.testing.assert_allclose(top[side], bottom[side], atol=1e-9)

    def test_jumping_jack_raises_wrists_overhead(self):
        model = JumpingJack(period_s=2.0)
        down = model.pose_at(0.0)
        up = model.pose_at(1.0)
        # wrists above the nose at peak (smaller y = higher)
        assert up["left_wrist"][1] < up["nose"][1]
        assert down["left_wrist"][1] > down["left_shoulder"][1]

    def test_jumping_jack_spreads_ankles(self):
        model = JumpingJack(period_s=2.0)
        down = model.pose_at(0.0)
        up = model.pose_at(1.0)
        spread_down = down["right_ankle"][0] - down["left_ankle"][0]
        spread_up = up["right_ankle"][0] - up["left_ankle"][0]
        assert spread_up > spread_down + 0.3

    def test_wave_moves_only_right_wrist_laterally(self):
        model = Wave(period_s=1.0)
        quarter = model.pose_at(0.25)
        three_quarter = model.pose_at(0.75)
        wrist_travel = abs(quarter["right_wrist"][0] - three_quarter["right_wrist"][0])
        assert wrist_travel > 0.2
        np.testing.assert_allclose(
            quarter["left_wrist"], three_quarter["left_wrist"], atol=1e-9
        )

    def test_wave_wrist_is_raised(self):
        pose = Wave().pose_at(0.0)
        assert pose["right_wrist"][1] < pose["right_shoulder"][1] + 0.05

    def test_clap_brings_wrists_together(self):
        model = Clap(period_s=1.0)
        apart = model.pose_at(0.0)
        together = model.pose_at(0.5)
        gap_apart = apart["right_wrist"][0] - apart["left_wrist"][0]
        gap_together = together["right_wrist"][0] - together["left_wrist"][0]
        assert gap_together < gap_apart * 0.2

    def test_fall_is_aperiodic_and_ends_horizontal(self):
        model = Fall(period_s=0.9)
        assert not model.periodic
        standing = model.pose_at(0.0)
        fallen = model.pose_at(5.0)  # long after the fall completes
        np.testing.assert_allclose(
            fallen.keypoints, model.pose_at(0.9).keypoints, atol=1e-9
        )
        standing_height = np.ptp(standing.keypoints[:, 1])
        fallen_height = np.ptp(fallen.keypoints[:, 1])
        assert fallen_height < standing_height * 0.5

    def test_stand_barely_moves(self):
        model = Stand(period_s=2.0)
        a = model.pose_at(0.0).keypoints
        b = model.pose_at(1.0).keypoints
        assert np.abs(a - b).max() < 0.05

    def test_amplitude_scales_squat_depth(self):
        shallow = Squat(amplitude=0.5).pose_at(1.0).hip_center()[1]
        deep = Squat(amplitude=1.0).pose_at(1.0).hip_center()[1]
        assert deep > shallow


class TestConstantsBuiltOnce:
    #: The neutral standing pose, by keypoint name.
    STANDING = {
        "nose": (0.00, -0.75), "left_eye": (-0.05, -0.78),
        "right_eye": (0.05, -0.78), "left_ear": (-0.10, -0.75),
        "right_ear": (0.10, -0.75), "left_shoulder": (-0.20, -0.50),
        "right_shoulder": (0.20, -0.50), "left_elbow": (-0.26, -0.25),
        "right_elbow": (0.26, -0.25), "left_wrist": (-0.28, 0.02),
        "right_wrist": (0.28, 0.02), "left_hip": (-0.12, 0.00),
        "right_hip": (0.12, 0.00), "left_knee": (-0.13, 0.45),
        "right_knee": (0.13, 0.45), "left_ankle": (-0.14, 0.90),
        "right_ankle": (0.14, 0.90),
    }

    def test_base_pose_places_every_keypoint_by_name(self):
        pose = base_pose()
        assert len(self.STANDING) == len(KP)
        for name, xy in self.STANDING.items():
            assert tuple(pose[KP[name]]) == xy

    def test_a_caller_mutating_base_pose_cannot_change_the_next_call(self):
        first = base_pose()
        expected = first.copy()
        first += 5.0
        first[KP["nose"]] = (9.0, 9.0)
        again = base_pose()
        assert again.tobytes() == expected.tobytes()
        assert again.flags.writeable

    @pytest.mark.parametrize("name", sorted(MODEL_BY_NAME))
    def test_neutral_keypoints_are_the_pose_at_zero_read_only(self, name):
        model = make_model(name, amplitude=0.8)
        neutral = model.neutral_keypoints
        assert neutral.tobytes() == model.pose_at(0.0).keypoints.tobytes()
        assert model.neutral_keypoints is neutral  # computed once
        with pytest.raises(ValueError):
            neutral[0, 0] = 1.0
