"""Repetition counting (§4.1.3).

"We use k-means with k = 2 to classify the frames into a cluster that
occurs near the start of the exercise and a cluster that occurs near the
end … we require 4 frames to have transitioned to count a state transition
… We count a state transition from and back to the initial state as a
single rep."
"""

from __future__ import annotations

import numpy as np

from ..motion.skeleton import Pose
from .features import frames_to_matrix
from .kmeans import KMeans

#: The paper's debounce length: a cluster flip only counts after this many
#: consecutive frames agree, suppressing alternation at the boundary.
DEBOUNCE_FRAMES = 4


def count_reps_in_labels(labels: np.ndarray, debounce: int = DEBOUNCE_FRAMES) -> int:
    """Count initial→other→initial cycles in a 0/1 cluster-label sequence.

    The initial state is the debounced state at the start of the sequence.
    """
    state = None
    initial = None
    run_value: int | None = None
    run_length = 0
    reps = 0
    left_initial = False
    for value in labels:
        value = int(value)
        if value == run_value:
            run_length += 1
        else:
            run_value = value
            run_length = 1
        if run_length < debounce:
            continue
        # the debounced state is now `value`
        if state is None:
            state = value
            initial = value
            continue
        if value == state:
            continue
        state = value
        if state != initial:
            left_initial = True
        elif left_initial:
            reps += 1
            left_initial = False
    return reps


class RepCounter:
    """Batch rep counter: cluster an exercise bout's frames, then count."""

    def __init__(self, debounce: int = DEBOUNCE_FRAMES, seed: int = 0) -> None:
        if debounce < 1:
            raise ValueError("debounce must be >= 1")
        self.debounce = debounce
        self.seed = seed

    def count(self, poses: list[Pose]) -> int:
        """Count reps in a full sequence of estimated poses."""
        if len(poses) < 2 * self.debounce:
            return 0
        features = frames_to_matrix(poses)
        return self.count_features(features)

    def count_features(self, features: np.ndarray) -> int:
        """Count reps from precomputed per-frame features (the stateless
        service entry point)."""
        features = np.asarray(features, dtype=np.float64)
        if len(features) < max(2, 2 * self.debounce):
            return 0
        kmeans = KMeans(k=2, seed=self.seed).fit(features)
        labels = kmeans.predict(features)
        if len(set(labels.tolist())) < 2:
            return 0  # degenerate: no motion
        return count_reps_in_labels(labels, self.debounce)

