"""Unit tests for activity recognition (§4.1.2)."""

import pytest

from repro.motion import Squat, SubjectParams, make_model, sample_subject_sequence
from repro.vision import ActivityRecognizer, generate_activity_dataset
from repro.vision.pose_estimator import PoseNoiseModel


def small_dataset(seed=0):
    return generate_activity_dataset(
        activities=("squat", "jumping_jack", "stand"),
        train_subjects=3,
        test_subjects=1,
        duration_s=4.0,
        seed=seed,
    )


@pytest.fixture(scope="module")
def trained():
    dataset = small_dataset()
    recognizer = ActivityRecognizer(k=5).fit(dataset.train_windows, dataset.train_labels)
    return recognizer, dataset


class TestActivityRecognizer:
    def test_requires_uniform_window_length(self):
        recognizer = ActivityRecognizer()
        seq = sample_subject_sequence(Squat(), SubjectParams(), 15.0, 1.0)
        with pytest.raises(ValueError):
            recognizer.fit([seq[:10]], ["squat"])

    def test_classify_requires_window_length(self, trained):
        recognizer, dataset = trained
        with pytest.raises(ValueError):
            recognizer.classify(dataset.test_windows[0][:10])

    def test_classifies_known_activities(self, trained):
        recognizer, _ = trained
        seq = sample_subject_sequence(
            make_model("jumping_jack"), SubjectParams(), 15.0, 1.0
        )
        label, confidence = recognizer.classify(seq)
        assert label == "jumping_jack"
        assert confidence > 0.5

    def test_withheld_subject_accuracy_above_paper_bar(self, trained):
        """§4.1.2: 'test accuracy on a withheld test set was above 90%'."""
        recognizer, dataset = trained
        accuracy = recognizer.accuracy(dataset.test_windows, dataset.test_labels)
        assert accuracy > 0.9

    def test_classes_reported(self, trained):
        recognizer, _ = trained
        assert recognizer.classes == ("jumping_jack", "squat", "stand")

    def test_accuracy_requires_windows(self, trained):
        recognizer, _ = trained
        with pytest.raises(ValueError):
            recognizer.accuracy([], [])

    def test_classify_feature_matches_classify(self, trained):
        from repro.vision import window_feature

        recognizer, dataset = trained
        window = dataset.test_windows[0]
        assert recognizer.classify(window) == recognizer.classify_feature(
            window_feature(window)
        )


class TestDataset:
    def test_split_sizes(self):
        dataset = small_dataset()
        assert len(dataset.train_windows) == len(dataset.train_labels)
        assert len(dataset.test_windows) == len(dataset.test_labels)
        assert len(dataset.train_windows) > len(dataset.test_windows)

    def test_all_classes_in_both_splits(self):
        dataset = small_dataset()
        assert set(dataset.train_labels) == set(dataset.test_labels)

    def test_seed_reproducibility(self):
        import numpy as np

        a = small_dataset(seed=4)
        b = small_dataset(seed=4)
        np.testing.assert_array_equal(
            a.train_windows[0][0].keypoints, b.train_windows[0][0].keypoints
        )

    def test_noise_model_applied(self):
        clean = generate_activity_dataset(
            activities=("squat",), train_subjects=1, test_subjects=1,
            duration_s=2.0, noise=PoseNoiseModel(sigma_frac=0.0, dropout_prob=0.0),
            seed=0,
        )
        noisy = generate_activity_dataset(
            activities=("squat",), train_subjects=1, test_subjects=1,
            duration_s=2.0, noise=PoseNoiseModel(sigma_frac=0.05, dropout_prob=0.0),
            seed=0,
        )
        import numpy as np

        delta = np.abs(
            clean.train_windows[0][0].keypoints - noisy.train_windows[0][0].keypoints
        )
        assert delta.max() > 1.0
