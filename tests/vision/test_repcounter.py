"""Unit tests for the rep counter (§4.1.3)."""

import numpy as np
import pytest

from repro.motion import Squat, SubjectParams, sample_subject_sequence
from repro.vision import RepCounter, generate_rep_bouts
from repro.vision.repcounter import count_reps_in_labels


class TestCountRepsInLabels:
    def test_clean_cycles_counted(self):
        # 6 frames per state, 3 full cycles back to initial
        labels = np.array(([0] * 6 + [1] * 6) * 3 + [0] * 6)
        assert count_reps_in_labels(labels, debounce=4) == 3

    def test_incomplete_cycle_not_counted(self):
        labels = np.array([0] * 6 + [1] * 6)  # left but never returned
        assert count_reps_in_labels(labels, debounce=4) == 0

    def test_boundary_alternation_suppressed(self):
        """The paper's 4-frame debounce: alternating 0/1 at the cluster
        boundary must not create phantom reps."""
        flicker = [0, 1, 0, 1, 0, 1]
        labels = np.array([0] * 6 + flicker + [1] * 6 + flicker + [0] * 6)
        assert count_reps_in_labels(labels, debounce=4) == 1

    def test_debounce_one_counts_alternations(self):
        labels = np.array([0, 1, 0, 1, 0])
        assert count_reps_in_labels(labels, debounce=1) == 2

    def test_short_blip_below_debounce_ignored(self):
        labels = np.array([0] * 6 + [1] * 3 + [0] * 6)  # 3 < debounce 4
        assert count_reps_in_labels(labels, debounce=4) == 0

    def test_empty_and_constant_sequences(self):
        assert count_reps_in_labels(np.array([])) == 0
        assert count_reps_in_labels(np.zeros(50, dtype=int)) == 0


class TestRepCounter:
    def test_validation(self):
        with pytest.raises(ValueError):
            RepCounter(debounce=0)

    def test_counts_squat_reps_exactly_on_clean_data(self):
        model = Squat(period_s=2.0)
        poses = sample_subject_sequence(model, SubjectParams(), fps=15.0,
                                        duration_s=5 * 2.0 + 0.3)
        assert RepCounter().count(poses) == 5

    def test_short_sequence_returns_zero(self):
        poses = sample_subject_sequence(Squat(), SubjectParams(), 15.0, 0.3)
        assert RepCounter().count(poses) == 0

    def test_static_subject_counts_zero(self):
        from repro.motion.exercises import Stand

        poses = sample_subject_sequence(Stand(), SubjectParams(), 15.0, 6.0)
        assert RepCounter().count(poses) <= 1  # no real reps in idle sway

    def test_noisy_bouts_mostly_correct(self):
        """§4.1.3 reports 83.3% exact-count accuracy; noisy synthetic bouts
        should land in the same band or better."""
        bouts = generate_rep_bouts(bouts_per_exercise=4, seed=1)
        counter = RepCounter()
        exact = sum(counter.count(b.poses) == b.true_reps for b in bouts)
        assert exact / len(bouts) >= 0.7

    def test_counts_never_wildly_off(self):
        bouts = generate_rep_bouts(bouts_per_exercise=3, seed=2)
        counter = RepCounter()
        for bout in bouts:
            got = counter.count(bout.poses)
            assert abs(got - bout.true_reps) <= 2


class TestRepBoutGenerator:
    def test_bout_metadata(self):
        bouts = generate_rep_bouts(
            exercises=("squat",), bouts_per_exercise=2, seed=0
        )
        assert len(bouts) == 2
        for bout in bouts:
            assert bout.exercise == "squat"
            assert 3 <= bout.true_reps <= 10
            assert len(bout.poses) > 0
