"""Unit and property tests for the kNN classifier.

``REPRO_FUZZ_N`` scales the example budget of the reference test like the
other fuzz suites (default 300; CI's audit job runs 3000).
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.vision import KNNClassifier

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "300"))


def reference_neighbours(features, query, k):
    """The full scan: every row's exact squared distance, the k nearest
    ordered by (distance, training index)."""
    deltas = features - query
    distances = np.einsum("ij,ij->i", deltas, deltas)
    order = np.argsort(distances, kind="stable")[: min(k, len(distances))]
    return order, np.sqrt(distances[order])


def assert_matches_reference(features, query, k):
    clf = KNNClassifier(k=k).fit(features, ["x"] * len(features))
    query = np.asarray(query, dtype=np.float64)
    order, distances = clf._neighbours(query)
    want_order, want_distances = reference_neighbours(
        np.asarray(features, dtype=np.float64), query, k
    )
    assert order.tolist() == want_order.tolist()
    assert [float(x).hex() for x in distances] == [
        float(x).hex() for x in want_distances
    ]


def two_blobs(n=20, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n, 3))
    b = rng.normal(separation, 1.0, (n, 3))
    features = np.vstack([a, b])
    labels = ["a"] * n + ["b"] * n
    return features, labels


def label_of(clf, query):
    return clf.predict_with_confidence(query)[0]


class TestValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            KNNClassifier(k=0)

    def test_fit_validates_shapes(self):
        clf = KNNClassifier()
        with pytest.raises(ValueError):
            clf.fit(np.zeros((3,)), ["a", "b", "c"])
        with pytest.raises(ValueError):
            clf.fit(np.zeros((3, 2)), ["a"])
        with pytest.raises(ValueError):
            clf.fit(np.zeros((0, 2)), [])

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError):
            KNNClassifier().predict_with_confidence(np.zeros(3))


class TestClassification:
    def test_separable_blobs_classified_perfectly(self):
        features, labels = two_blobs()
        clf = KNNClassifier(k=3).fit(features, labels)
        assert label_of(clf, np.zeros(3)) == "a"
        assert label_of(clf, np.full(3, 10.0)) == "b"
        assert [label_of(clf, f) for f in features] == labels

    def test_k_larger_than_dataset_uses_all_points(self):
        features = np.array([[0.0], [1.0], [2.0]])
        clf = KNNClassifier(k=50).fit(features, ["a", "a", "b"])
        assert label_of(clf, np.array([10.0])) == "a"  # majority of all 3

    def test_k1_is_nearest_neighbour(self):
        features = np.array([[0.0], [10.0]])
        clf = KNNClassifier(k=1).fit(features, ["a", "b"])
        assert label_of(clf, np.array([4.0])) == "a"
        assert label_of(clf, np.array([6.0])) == "b"

    def test_tie_goes_to_nearer_class(self):
        features = np.array([[0.0], [2.0]])
        clf = KNNClassifier(k=2).fit(features, ["a", "b"])
        assert label_of(clf, np.array([0.5])) == "a"
        assert label_of(clf, np.array([1.5])) == "b"

    def test_confidence_is_vote_fraction(self):
        features = np.array([[0.0], [0.1], [5.0]])
        clf = KNNClassifier(k=3).fit(features, ["a", "a", "b"])
        label, confidence = clf.predict_with_confidence(np.array([0.0]))
        assert label == "a"
        assert confidence == pytest.approx(2 / 3)


@given(
    seed=st.integers(0, 1000),
    k=st.integers(1, 7),
)
@settings(max_examples=30)
def test_property_training_points_classified_as_own_label_when_k1(seed, k):
    """With k=1, every training point is its own nearest neighbour."""
    features, labels = two_blobs(n=8, separation=6.0, seed=seed)
    clf = KNNClassifier(k=1).fit(features, labels)
    assert [label_of(clf, f) for f in features] == labels


@given(shift=st.floats(min_value=-100, max_value=100))
@settings(max_examples=30)
def test_property_translation_invariance(shift):
    """Shifting all features and queries together never changes labels."""
    features, labels = two_blobs(n=10)
    query = np.array([1.0, 2.0, 3.0])
    clf_a = KNNClassifier(k=3).fit(features, labels)
    clf_b = KNNClassifier(k=3).fit(features + shift, labels)
    assert label_of(clf_a, query) == label_of(clf_b, query + shift)


class TestScreenedSearch:
    """``_neighbours`` screens the rows with ``‖f‖² − 2f·q + ‖q‖²`` and
    decides on exact distances: it must equal the full scan bit for bit."""

    def test_duplicate_rows_tied_at_the_kth_place_go_by_index(self):
        base = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        features = np.vstack([base, np.tile([[1.0, 1.0]], (60, 1)), base])
        for k in (1, 2, 3, 10, 40, 62):
            assert_matches_reference(features, [0.0, 0.0], k)
        order, _ = KNNClassifier(k=3).fit(features, ["x"] * 66)._neighbours(
            np.zeros(2)
        )
        assert order.tolist() == [0, 63, 2]

    def test_a_common_offset_cancels_in_the_screen(self):
        """At 1e6 the expansion loses every digit that separates the rows,
        so the screen must keep many rows for the exact pass to decide."""
        rng = np.random.default_rng(7)
        features = 1e6 + rng.normal(0.0, 1e-3, (200, 6))
        query = 1e6 + rng.normal(0.0, 1e-3, 6)
        for k in (1, 5, 17):
            assert_matches_reference(features, query, k)
        clf = KNNClassifier(k=5).fit(features, ["x"] * 200)
        norms = np.einsum("ij,ij->i", features, features)
        screened = norms - 2.0 * (features @ query) + query @ query
        exact = ((features - query) ** 2).sum(axis=1)
        assert np.abs(screened - exact).max() > np.ptp(exact)  # really cancels
        assert len(clf._neighbours(query)[0]) == 5

    def test_k_at_least_n_returns_every_row_in_order(self):
        features = np.array([[2.0], [0.0], [2.0], [-1.0]])
        for k in (4, 5, 50):
            assert_matches_reference(features, [0.5], k)

    def test_one_dimension(self):
        rng = np.random.default_rng(3)
        features = rng.integers(-5, 6, (50, 1)).astype(float)
        for q in (-5.5, 0.0, 0.5, 3.0):
            for k in (1, 4, 9):
                assert_matches_reference(features, [q], k)


@st.composite
def knn_cases(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.one_of(st.integers(1, 12), st.sampled_from([31, 34, 64, 510])))
    k = draw(st.integers(1, 45))
    pool = draw(st.integers(1, n))  # fewer distinct rows than rows: ties
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, 1.0, -250.0, 1e6]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    distinct = rng.normal(0.0, scale, (pool, d))
    if draw(st.booleans()):
        distinct = np.round(distinct / scale * 2.0) * scale / 2.0  # grid
    features = offset + distinct[rng.integers(0, pool, n)]
    if draw(st.booleans()):
        query = features[rng.integers(0, n)].copy()
    else:
        query = offset + rng.normal(0.0, scale, d)
    return features, query, k


@given(case=knn_cases())
@example(case=(np.tile([[1.0, 2.0, 3.0]], (9, 1)), np.zeros(3), 4))
@example(case=(1e6 + np.arange(30.0).reshape(10, 3) * 1e-4, 1e6 + np.zeros(3), 3))
@example(case=(np.array([[0.0], [1.0], [1.0]]), np.array([0.25]), 3))
@example(case=(np.array([[0.0], [1.0], [-1.0]]), np.array([0.0]), 2))
@settings(max_examples=FUZZ_N, deadline=None)
def test_neighbours_match_the_full_scan_reference(case):
    features, query, k = case
    assert_matches_reference(features, query, k)


def test_fit_keeps_its_own_copy_of_the_training_set():
    features, labels = two_blobs(n=12, separation=4.0, seed=5)
    features = features.copy()
    clf = KNNClassifier(k=5).fit(features, labels)
    queries = np.linspace(-2.0, 6.0, 15)[:, None] * np.ones(3)
    before = [clf.predict_with_confidence(q) for q in queries]
    neighbours = [clf._neighbours(q) for q in queries]
    features[:] = features[::-1] * 3.0 + 7.0  # caller reuses its array
    assert [clf.predict_with_confidence(q) for q in queries] == before
    for q, (order, distances) in zip(queries, neighbours):
        again = clf._neighbours(q)
        assert again[0].tolist() == order.tolist()
        assert again[1].tobytes() == distances.tobytes()
