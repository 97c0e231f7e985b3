"""Oracle: object detection labels the components ``ndimage.label`` does.

scipy is a dev extra. On random masks, and on the shapes a labeller gets
wrong first — empty, full, one row, one column, pixels that touch only
diagonally — ``label_components`` must return ``scipy.ndimage.label``'s
labels array and count, and the detector's boxes must be those of its
components, in its order.

``REPRO_FUZZ_N`` scales the example budget like the other fuzz suites.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision import BBox
from repro.vision.object_detector import ObjectDetector, label_components

ndimage = pytest.importorskip("scipy.ndimage")

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))

#: Masks the random ones may never draw.
SHAPES = {
    "empty": np.zeros((7, 9), dtype=bool),
    "full": np.ones((7, 9), dtype=bool),
    "one row": np.array([[1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1]], dtype=bool),
    "one column": np.array([[1], [1], [1], [0], [1], [1], [1], [1]], dtype=bool),
    "diagonal only": np.indices((8, 8)).sum(axis=0) % 2 == 0,
    "u shape": np.array([[1, 0, 0, 1],
                         [1, 0, 0, 1],
                         [1, 1, 1, 1]], dtype=bool),
}


def random_mask(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = rng.integers(1, 24, size=2)
    return rng.random(shape) < rng.uniform(0.05, 0.95)


def image_of(mask: np.ndarray, seed: int = 0) -> np.ndarray:
    """Bright random colours on the mask, dim ones elsewhere."""
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 100, size=(*mask.shape, 3), dtype=np.uint8)
    image[mask] = rng.integers(120, 256, size=(int(mask.sum()), 3))
    return image


def reference_boxes(mask: np.ndarray, min_area: int) -> list[BBox]:
    labels, count = ndimage.label(mask)
    boxes = []
    for component in range(1, count + 1):
        rows, cols = np.nonzero(labels == component)
        if len(rows) >= min_area:
            boxes.append(BBox(float(cols.min()), float(rows.min()),
                              float(cols.max()), float(rows.max())))
    return boxes


def detected_boxes(mask: np.ndarray, min_area: int) -> list[BBox]:
    detector = ObjectDetector(min_area=min_area)
    return [d.bbox for d in detector.detect(image_of(mask))]


def assert_labels_equal(mask: np.ndarray) -> None:
    labels, count = label_components(mask)
    want, want_count = ndimage.label(mask)
    assert count == want_count
    assert labels.dtype == want.dtype
    np.testing.assert_array_equal(labels, want)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shapes_are_labelled_as_ndimage_labels_them(name):
    assert_labels_equal(SHAPES[name])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_random_masks_are_labelled_as_ndimage_labels_them(seed):
    assert_labels_equal(random_mask(seed))


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("min_area", [1, 3])
def test_shapes_are_detected_as_ndimage_labels_them(name, min_area):
    mask = SHAPES[name]
    assert detected_boxes(mask, min_area) == reference_boxes(mask, min_area)


@given(seed=st.integers(0, 2**32 - 1), min_area=st.sampled_from([1, 2, 9]))
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_random_masks_are_detected_as_ndimage_labels_them(seed, min_area):
    mask = random_mask(seed)
    assert detected_boxes(mask, min_area) == reference_boxes(mask, min_area)
