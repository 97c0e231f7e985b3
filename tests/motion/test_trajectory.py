"""Unit tests for subject placement and variation."""

import numpy as np
import pytest

from repro.motion import (
    Squat,
    SubjectParams,
    place_in_image,
    random_subject,
    sample_subject_sequence,
    subject_pose,
)
from repro.motion.skeleton import Pose
from repro.motion.exercises import MODEL_BY_NAME, base_pose, make_model


class TestPlacement:
    def test_feet_on_ground_and_centered(self):
        subject = SubjectParams(height_px=300, center_x=320, ground_y=440)
        placed = place_in_image(Pose(base_pose()), subject)
        feet_y = max(placed["left_ankle"][1], placed["right_ankle"][1])
        assert feet_y == pytest.approx(440, abs=1.0)
        hips_x = placed.hip_center()[0]
        assert hips_x == pytest.approx(320, abs=1.0)

    def test_height_maps_to_pixels(self):
        subject = SubjectParams(height_px=300)
        placed = place_in_image(Pose(base_pose()), subject)
        height = placed.keypoints[:, 1].max() - placed.keypoints[:, 1].min()
        assert height == pytest.approx(300, rel=0.02)

    def test_visibility_preserved(self):
        visibility = np.ones(17, dtype=bool)
        visibility[3] = False
        placed = place_in_image(Pose(base_pose(), visibility), SubjectParams())
        assert not placed.visibility[3]


class TestSubjectPose:
    def test_tempo_slows_the_motion(self):
        fast = SubjectParams(tempo=1.0)
        slow = SubjectParams(tempo=2.0)
        model = Squat(period_s=2.0)
        # at t=1 the fast subject is at the bottom; slow is only a quarter in
        fast_hips = subject_pose(model, fast, 1.0).hip_center()[1]
        slow_hips = subject_pose(model, slow, 1.0).hip_center()[1]
        assert fast_hips > slow_hips

    def test_amplitude_shrinks_motion(self):
        model = Squat(period_s=2.0)
        full = SubjectParams(amplitude=1.0)
        half = SubjectParams(amplitude=0.5)
        neutral_y = subject_pose(model, full, 0.0).hip_center()[1]
        full_dip = subject_pose(model, full, 1.0).hip_center()[1] - neutral_y
        half_dip = subject_pose(model, half, 1.0).hip_center()[1] - neutral_y
        assert half_dip == pytest.approx(full_dip * 0.5, rel=0.05)

    def test_phase_offset_shifts_cycle(self):
        model = Squat(period_s=2.0)
        offset = SubjectParams(phase_offset_s=1.0)
        plain = SubjectParams()
        np.testing.assert_allclose(
            subject_pose(model, offset, 0.0).keypoints,
            subject_pose(model, plain, 1.0).keypoints,
            atol=1e-9,
        )

    def test_sequence_length(self):
        seq = sample_subject_sequence(Squat(), SubjectParams(), fps=10, duration_s=2.0)
        assert len(seq) == 20


def reference_subject_pose(model, subject, t):
    """``subject_pose`` recomputing the neutral reference on every call."""
    body = model.pose_at((t + subject.phase_offset_s) / subject.tempo)
    if subject.amplitude != 1.0:
        base = model.pose_at(subject.phase_offset_s * 0.0)
        keypoints = base.keypoints + subject.amplitude * (
            body.keypoints - base.keypoints
        )
        body = Pose(keypoints, body.visibility)
    return place_in_image(body, subject)


class TestNeutralComputedOnce:
    @pytest.mark.parametrize("name", sorted(MODEL_BY_NAME))
    def test_bit_identical_to_the_reference_on_a_grid(self, name):
        rng = np.random.default_rng(11)
        subjects = [random_subject(rng) for _ in range(5)]
        subjects += [SubjectParams(), SubjectParams(amplitude=0.5, tempo=1.7)]
        for period in (0.9, 2.0):
            model = make_model(name, period_s=period)
            for subject in subjects:
                for t in np.linspace(0.0, 3.0, 37).tolist():
                    got = subject_pose(model, subject, t)
                    want = reference_subject_pose(model, subject, t)
                    assert got.keypoints.tobytes() == want.keypoints.tobytes()
                    assert got.visibility.tobytes() == want.visibility.tobytes()

    def test_a_caller_mutating_a_pose_cannot_change_the_next_call(self):
        model = Squat(period_s=2.0)
        subject = SubjectParams(amplitude=0.7)
        first = subject_pose(model, subject, 0.4)
        expected = first.keypoints.copy()
        first.keypoints += 100.0
        first.visibility[:] = False
        again = subject_pose(model, subject, 0.4)
        assert again.keypoints.tobytes() == expected.tobytes()
        assert again.visibility.all()


class TestVariation:
    def test_random_subject_within_frame(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            subject = random_subject(rng, frame_width=640, frame_height=480)
            assert 0 < subject.center_x < 640
            assert 0 < subject.ground_y <= 480
            assert 0 < subject.height_px < 480
            assert subject.tempo > 0

    def test_random_subjects_differ(self):
        rng = np.random.default_rng(0)
        a, b = random_subject(rng), random_subject(rng)
        assert a != b
