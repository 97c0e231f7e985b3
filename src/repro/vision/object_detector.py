"""Object, face and image-classification primitives.

These back the paper's other stateless services (§2.2 names object
detection, face detection, activity recognition and object tracking).
Scenes are synthetic — colored rectangles over a noisy background — but the
detection path is real image analysis: channel thresholding, connected
components, color classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bbox import BBox

#: Color classes the synthetic scenes use (RGB).
COLOR_CLASSES = {
    "cup": (220, 40, 40),
    "book": (40, 200, 60),
    "bottle": (50, 80, 220),
    "remote": (230, 220, 50),
}


@dataclass(frozen=True, slots=True)
class SceneObject:
    """A ground-truth object placed in a synthetic scene."""

    kind: str
    bbox: BBox

    def __post_init__(self) -> None:
        if self.kind not in COLOR_CLASSES:
            raise ValueError(f"unknown object kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output: a labelled box with a confidence score."""

    label: str
    bbox: BBox
    score: float


def render_scene(
    objects: list[SceneObject],
    width: int = 160,
    height: int = 120,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw the objects as filled color rectangles over a dim background."""
    if rng is not None:
        image = rng.integers(20, 60, size=(height, width, 3)).astype(np.uint8)
    else:
        image = np.full((height, width, 3), 40, dtype=np.uint8)
    for obj in objects:
        color = COLOR_CLASSES[obj.kind]
        x0 = int(max(0, obj.bbox.x0))
        y0 = int(max(0, obj.bbox.y0))
        x1 = int(min(width - 1, obj.bbox.x1))
        y1 = int(min(height - 1, obj.bbox.y1))
        if x1 <= x0 or y1 <= y0:
            continue
        image[y0 : y1 + 1, x0 : x1 + 1] = color
    return image


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a 2-D boolean mask: an int32 array of
    labels 1..count (0 off the mask), numbered by each component's first
    pixel in raster order, and the count — ``scipy.ndimage.label``'s answer.

    Each row's runs of set pixels join the runs they overlap in the row
    above (union-find; a component's root is its first run).
    """
    stride = mask.shape[1] + 1  # the step grid is one column wider than the mask
    steps = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1).ravel()
    begin, end = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)
    # the runs a row above that each run overlaps: run numbers [first, stop)
    first = np.searchsorted(end, begin - stride, "right").tolist()
    stop = np.searchsorted(begin, end - stride).tolist()
    parent = list(range(len(begin)))

    def root(run: int) -> int:
        while parent[run] != run:
            parent[run] = run = parent[parent[run]]
        return run

    for run, (lo, hi) in enumerate(zip(first, stop)):
        for other in range(lo, hi):
            a, b = root(run), root(other)
            parent[max(a, b)] = min(a, b)
    roots = np.array([root(run) for run in range(len(parent))], dtype=np.int64)
    firsts, run_labels = np.unique(roots, return_inverse=True)
    labels = np.zeros(mask.size, dtype=np.int32)
    pixels = np.flatnonzero(mask)
    run_starts = begin - begin // stride  # each run's first pixel, flat
    labels[pixels] = run_labels[np.searchsorted(run_starts, pixels, "right") - 1] + 1
    return labels.reshape(mask.shape), len(firsts)


class ObjectDetector:
    """Detects bright color blobs and classifies them by nearest class color."""

    def __init__(self, brightness_threshold: int = 120, min_area: int = 9) -> None:
        self.brightness_threshold = brightness_threshold
        self.min_area = min_area
        self._class_names = list(COLOR_CLASSES)
        self._class_colors = np.array(
            [COLOR_CLASSES[name] for name in self._class_names], dtype=np.float64
        )

    def detect(self, image: np.ndarray) -> list[Detection]:
        """Find labelled boxes in an (h, w, 3) uint8 image."""
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError("object detection expects an RGB image")
        foreground = image.max(axis=2) >= self.brightness_threshold
        labels, count = label_components(foreground)
        detections = []
        for component in range(1, count + 1):
            mask = labels == component
            area = int(mask.sum())
            if area < self.min_area:
                continue
            rows = np.flatnonzero(mask.any(axis=1))
            cols = np.flatnonzero(mask.any(axis=0))
            bbox = BBox(float(cols[0]), float(rows[0]), float(cols[-1]), float(rows[-1]))
            mean_color = image[mask].mean(axis=0)
            dists = np.linalg.norm(self._class_colors - mean_color, axis=1)
            best = int(dists.argmin())
            # confidence decays with color distance (max distance ~ 441)
            score = float(np.clip(1.0 - dists[best] / 200.0, 0.0, 1.0))
            detections.append(Detection(self._class_names[best], bbox, score))
        return detections


def detect_face_region(
    image: np.ndarray, threshold: int = 120, head_fraction: float = 0.16
) -> BBox | None:
    """Locate the head of a person standing head-up in a grayscale frame.

    Real pixel analysis: the foreground silhouette's top slab — the kind of
    cheap heuristic an embedded face detector stage would refine.
    """
    if image.ndim != 2:
        raise ValueError("face detection expects a grayscale image")
    mask = image >= threshold
    if not mask.any():
        return None
    rows = np.flatnonzero(mask.any(axis=1))
    top, bottom = int(rows[0]), int(rows[-1])
    head_rows = max(1, int((bottom - top + 1) * head_fraction))
    head_mask = mask[top : top + head_rows]
    cols = np.flatnonzero(head_mask.any(axis=0))
    if len(cols) == 0:
        return None
    return BBox(float(cols[0]), float(top), float(cols[-1]), float(top + head_rows - 1))


class ColorHistogramClassifier:
    """Nearest-centroid image classification on RGB histograms.

    Backs the paper's "image classification" service: a real (if simple)
    classifier trained on example images.
    """

    def __init__(self, bins: int = 4) -> None:
        if bins < 2:
            raise ValueError("bins must be >= 2")
        self.bins = bins
        self._centroids: dict[str, np.ndarray] = {}

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted(self._centroids))

    def _histogram(self, image: np.ndarray) -> np.ndarray:
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError("classifier expects an RGB image")
        quantized = (image.astype(np.int64) * self.bins) // 256
        flat = (
            quantized[..., 0] * self.bins * self.bins
            + quantized[..., 1] * self.bins
            + quantized[..., 2]
        ).ravel()
        hist = np.bincount(flat, minlength=self.bins ** 3).astype(np.float64)
        total = hist.sum()
        return hist / total if total > 0 else hist

    def fit(self, images: list[np.ndarray], labels: list[str]) -> "ColorHistogramClassifier":
        if len(images) != len(labels) or not images:
            raise ValueError("need equal, non-zero numbers of images and labels")
        by_label: dict[str, list[np.ndarray]] = {}
        for image, label in zip(images, labels):
            by_label.setdefault(label, []).append(self._histogram(image))
        self._centroids = {
            label: np.mean(hists, axis=0) for label, hists in by_label.items()
        }
        return self

    def classify(self, image: np.ndarray) -> tuple[str, float]:
        """Return (label, similarity score in [0, 1])."""
        if not self._centroids:
            raise ValueError("classifier is not fitted")
        hist = self._histogram(image)
        best_label, best_dist = None, float("inf")
        for label, centroid in self._centroids.items():
            dist = float(np.linalg.norm(hist - centroid))
            if dist < best_dist:
                best_label, best_dist = label, dist
        assert best_label is not None
        return best_label, float(np.exp(-4.0 * best_dist))
