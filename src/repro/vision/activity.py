"""Activity recognition on pose sequences (§4.1.2).

"Our activity recognition system utilizes nearest neighbor on pose
sequences. To feed nearest neighbors, we take a list of 15 consecutive
frames … We normalize the coordinates framewise so that (0,0) is located at
the average of the left and right hips."
"""

from __future__ import annotations

import numpy as np

from ..motion.skeleton import Pose
from .features import WINDOW_FRAMES, window_feature, windows_to_matrix
from .knn import KNNClassifier


class ActivityRecognizer:
    """kNN over 15-frame normalized pose windows."""

    def __init__(self, k: int = 5, window: int = WINDOW_FRAMES) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.classifier = KNNClassifier(k=k)

    @property
    def fitted(self) -> bool:
        return self.classifier.fitted

    @property
    def classes(self) -> tuple[str, ...]:
        return self.classifier.classes

    def fit(self, windows: list[list[Pose]], labels: list[str]) -> "ActivityRecognizer":
        """Train on labelled pose windows (each of length ``window``)."""
        for w in windows:
            if len(w) != self.window:
                raise ValueError(
                    f"every training window must have {self.window} frames,"
                    f" got {len(w)}"
                )
        self.classifier.fit(windows_to_matrix(windows), labels)
        return self

    def classify(self, window: list[Pose]) -> tuple[str, float]:
        """Label one window of consecutive poses; returns (label, confidence)."""
        if len(window) != self.window:
            raise ValueError(f"window must have {self.window} frames, got {len(window)}")
        return self.classifier.predict_with_confidence(window_feature(window))

    def classify_feature(self, feature: np.ndarray) -> tuple[str, float]:
        """Label a precomputed window feature vector (the stateless-service
        entry point: callers ship features, no recognizer state needed)."""
        return self.classifier.predict_with_confidence(feature)

    def accuracy(self, windows: list[list[Pose]], labels: list[str]) -> float:
        """Fraction of windows labelled correctly."""
        if not windows:
            raise ValueError("no evaluation windows")
        correct = sum(
            self.classify(w)[0] == label for w, label in zip(windows, labels)
        )
        return correct / len(windows)

