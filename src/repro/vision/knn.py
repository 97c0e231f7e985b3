"""k-nearest-neighbour classification, from scratch.

The paper's activity recognizer "utilizes nearest neighbor on pose
sequences" (§4.1.2). This is a dependency-light exact kNN: Euclidean
distance, majority vote, deterministic tie-breaking by nearest neighbour.

A query is answered in two passes. The screen expands ``‖f − q‖²`` as
``‖f‖² − 2f·q + ‖q‖²`` (one matrix-vector product against norms stored at
``fit``) and keeps every row that could be among the k nearest; the exact
pass computes ``Σ (f − q)²`` on those rows only and alone decides the
answer. Neighbours are ordered by (exact distance, training index).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

#: Unit roundoff of float64.
_U = 2.0 ** -53


def _gamma(n: int) -> float:
    """γ_n = nu / (1 − nu): the relative error bound of n roundings."""
    return n * _U / (1.0 - n * _U)


class KNNClassifier:
    """Exact k-nearest-neighbour majority-vote classifier."""

    def __init__(self, k: int = 5) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._features: np.ndarray | None = None
        self._sq_norms: np.ndarray | None = None
        self._max_sq_norm = 0.0
        self._labels: list[str] = []

    @property
    def fitted(self) -> bool:
        return self._features is not None

    def fit(self, features: np.ndarray, labels: list[str]) -> "KNNClassifier":
        """Store a private read-only copy of the training set and its
        squared row norms (kNN is otherwise lazy)."""
        features = np.array(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a (n, d) matrix")
        if len(features) != len(labels):
            raise ValueError("features and labels must have equal length")
        if len(features) == 0:
            raise ValueError("training set is empty")
        features.flags.writeable = False
        self._features = features
        self._sq_norms = np.einsum("ij,ij->i", features, features)
        self._max_sq_norm = float(self._sq_norms.max())
        self._labels = list(labels)
        return self

    def _neighbours(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest rows by (exact squared distance, index), and their
        distances."""
        assert self._features is not None and self._sq_norms is not None
        n, d = self._features.shape
        k = min(self.k, n)
        query_sq = float(query @ query)
        screened = self._sq_norms - 2.0 * (self._features @ query) + query_sq
        # Each row's screened value and its exact distance are each within
        # γ_{d+2}·(‖f‖ + ‖q‖)² ≤ 2γ_{d+2}·(max‖f‖² + ‖q‖²) of the true
        # ‖f − q‖², whatever order the sums are taken in, so a row among
        # the exact k nearest screens within 2·(both errors) of the k-th
        # smallest screened value (docs/PERF.md "The vision layer computes
        # each thing once"). γ_{d+3} absorbs the rounding of the threshold.
        margin = 8.0 * _gamma(d + 3) * (self._max_sq_norm + query_sq)
        kth = np.partition(screened, k - 1)[k - 1]
        rows = np.flatnonzero(screened <= kth + margin)
        deltas = self._features[rows] - query
        distances = np.einsum("ij,ij->i", deltas, deltas)  # squared L2
        # rows ascend, so a stable sort breaks distance ties by index
        order = np.argsort(distances, kind="stable")[:k]
        return rows[order], np.sqrt(distances[order])

    def predict_with_confidence(self, query: np.ndarray) -> tuple[str, float]:
        """Return ``(label, vote_fraction)``: the majority label among the k
        nearest, a tie going to the closer one."""
        if not self.fitted:
            raise ValueError("classifier is not fitted")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        order, _ = self._neighbours(query)
        votes = Counter(self._labels[i] for i in order)
        top = max(votes.values())
        tied = [label for label, count in votes.items() if count == top]
        if len(tied) == 1:
            winner = tied[0]
        else:
            # tie: the tied label whose representative appears first
            # (nearest) in the neighbour ordering wins
            winner = next(self._labels[i] for i in order if self._labels[i] in tied)
        return winner, top / len(order)
