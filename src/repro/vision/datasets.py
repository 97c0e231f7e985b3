"""Synthetic labelled datasets for training and evaluating the recognizers.

Plays the role of the authors' recorded workout data: subjects (randomized
body/tempo/position parameters) perform each activity; their ground-truth
pose streams pass through the estimator noise model; the result is split
into train and **withheld test subjects** ("The algorithm is trained on all
available labelled data except for a withheld test set", §4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..motion.exercises import MotionModel, make_model
from ..motion.skeleton import NUM_KEYPOINTS, Pose
from ..motion.trajectory import random_subject, sample_subject_sequence
from .features import WINDOW_FRAMES, sliding_windows
from .pose_estimator import PoseNoiseModel


def apply_estimator_noise(
    poses: list[Pose], noise: PoseNoiseModel, rng: np.random.Generator
) -> list[Pose]:
    """Perturb ground-truth poses the way the pose service would estimate
    them (jitter + dropout), without paying for frame rendering."""
    noisy = []
    for pose in poses:
        height = pose.keypoints[:, 1].max() - pose.keypoints[:, 1].min()
        sigma = max(0.5, noise.sigma_frac * float(height))
        keypoints = pose.keypoints + rng.normal(0.0, sigma, (NUM_KEYPOINTS, 2))
        visibility = rng.random(NUM_KEYPOINTS) >= noise.dropout_prob
        if not visibility.all():
            extra = rng.normal(0.0, sigma * 6.0, (NUM_KEYPOINTS, 2))
            keypoints[~visibility] += extra[~visibility]
        noisy.append(Pose(keypoints, visibility))
    return noisy


@dataclass(slots=True)
class ActivityDataset:
    """Labelled pose windows, split by withheld subjects."""

    train_windows: list[list[Pose]] = field(default_factory=list)
    train_labels: list[str] = field(default_factory=list)
    test_windows: list[list[Pose]] = field(default_factory=list)
    test_labels: list[str] = field(default_factory=list)


def generate_activity_dataset(
    activities: tuple[str, ...] = ("squat", "jumping_jack", "lunge", "lateral_raise", "stand"),
    train_subjects: int = 6,
    test_subjects: int = 2,
    fps: float = 15.0,
    duration_s: float = 8.0,
    window: int = WINDOW_FRAMES,
    stride: int = 5,
    noise: PoseNoiseModel | None = None,
    seed: int = 0,
) -> ActivityDataset:
    """Simulate recording sessions and cut them into labelled windows."""
    noise = noise or PoseNoiseModel()
    rng = np.random.default_rng(seed)
    dataset = ActivityDataset()
    for activity in activities:
        for subject_index in range(train_subjects + test_subjects):
            model: MotionModel = make_model(activity)
            subject = random_subject(rng)
            truth = sample_subject_sequence(model, subject, fps, duration_s)
            estimated = apply_estimator_noise(truth, noise, rng)
            windows = sliding_windows(estimated, window=window, stride=stride)
            is_test = subject_index >= train_subjects
            target_windows = dataset.test_windows if is_test else dataset.train_windows
            target_labels = dataset.test_labels if is_test else dataset.train_labels
            target_windows.extend(windows)
            target_labels.extend([activity] * len(windows))
    return dataset


@dataclass(slots=True)
class RepBout:
    """One exercise bout with its known true repetition count."""

    exercise: str
    poses: list[Pose]
    true_reps: int
    fps: float


def generate_rep_bouts(
    exercises: tuple[str, ...] = ("squat", "jumping_jack", "lateral_raise"),
    bouts_per_exercise: int = 8,
    reps_low: int = 3,
    reps_high: int = 10,
    fps: float = 15.0,
    noise: PoseNoiseModel | None = None,
    seed: int = 0,
) -> list[RepBout]:
    """Simulate bouts with a known number of repetitions each."""
    noise = noise or PoseNoiseModel()
    rng = np.random.default_rng(seed)
    bouts = []
    for exercise in exercises:
        for _ in range(bouts_per_exercise):
            true_reps = int(rng.integers(reps_low, reps_high + 1))
            model = make_model(exercise, period_s=float(rng.uniform(1.6, 2.6)))
            subject = random_subject(rng)
            # exactly true_reps full periods, plus a beat of rest either side
            duration = true_reps * model.period_s * subject.tempo
            rest = model.period_s * subject.tempo * 0.15
            truth = sample_subject_sequence(model, subject, fps, duration + rest)
            estimated = apply_estimator_noise(truth, noise, rng)
            bouts.append(RepBout(exercise, estimated, true_reps, fps))
    return bouts
