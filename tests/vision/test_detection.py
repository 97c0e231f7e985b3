"""Unit tests for object detection, face region, classification, tracking."""

import numpy as np
import pytest

from repro.vision import (
    BBox,
    ColorHistogramClassifier,
    Detection,
    IoUTracker,
    ObjectDetector,
    SceneObject,
    detect_face_region,
    render_scene,
)


def scene_with(*objects):
    return render_scene(list(objects), 160, 120, rng=np.random.default_rng(0))


class TestObjectDetector:
    def test_detects_and_labels_single_object(self):
        truth = SceneObject("cup", BBox(30, 30, 60, 70))
        detections = ObjectDetector().detect(scene_with(truth))
        assert len(detections) == 1
        assert detections[0].label == "cup"
        assert detections[0].bbox.iou(truth.bbox) > 0.8
        assert detections[0].score > 0.5

    def test_detects_multiple_disjoint_objects(self):
        truth = [
            SceneObject("cup", BBox(10, 10, 30, 30)),
            SceneObject("book", BBox(60, 40, 100, 80)),
            SceneObject("bottle", BBox(120, 10, 150, 60)),
        ]
        detections = ObjectDetector().detect(scene_with(*truth))
        assert sorted(d.label for d in detections) == ["book", "bottle", "cup"]

    def test_empty_scene_no_detections(self):
        image = render_scene([], 160, 120, rng=np.random.default_rng(0))
        assert ObjectDetector().detect(image) == []

    def test_tiny_specks_filtered(self):
        image = np.full((50, 50, 3), 40, dtype=np.uint8)
        image[10, 10] = (255, 0, 0)  # single-pixel noise
        assert ObjectDetector(min_area=9).detect(image) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SceneObject("dragon", BBox(0, 0, 1, 1))

    def test_requires_rgb(self):
        with pytest.raises(ValueError):
            ObjectDetector().detect(np.zeros((10, 10), dtype=np.uint8))


class TestFaceRegion:
    def test_face_found_at_top_of_subject(self):
        # a standing figure drawn here: head rows 20-33, body rows 34-109
        image = np.full((120, 160), 40, dtype=np.uint8)
        image[20:34, 74:86] = 200
        image[34:110, 68:92] = 200
        face = detect_face_region(image)
        assert face is not None
        assert face.y0 == 20.0 and face.y1 < 34.0
        assert 68.0 <= face.x0 and face.x1 <= 91.0
        assert face.x0 <= 80.0 <= face.x1

    def test_empty_image_returns_none(self):
        assert detect_face_region(np.full((60, 80), 30, dtype=np.uint8)) is None

    def test_requires_grayscale(self):
        with pytest.raises(ValueError):
            detect_face_region(np.zeros((10, 10, 3), dtype=np.uint8))


class TestColorHistogramClassifier:
    def test_classifies_dominant_colors(self):
        rng = np.random.default_rng(0)
        reds = [scene_with(SceneObject("cup", BBox(10, 10, 150, 110)))
                for _ in range(2)]
        greens = [scene_with(SceneObject("book", BBox(10, 10, 150, 110)))
                  for _ in range(2)]
        clf = ColorHistogramClassifier().fit(reds + greens,
                                             ["red"] * 2 + ["green"] * 2)
        label, score = clf.classify(reds[0])
        assert label == "red"
        assert 0.0 < score <= 1.0
        assert clf.classify(greens[0])[0] == "green"
        assert clf.classes == ("green", "red")

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            ColorHistogramClassifier().classify(np.zeros((4, 4, 3), dtype=np.uint8))

    def test_fit_validates_input(self):
        with pytest.raises(ValueError):
            ColorHistogramClassifier().fit([], [])

    def test_bins_validated(self):
        with pytest.raises(ValueError):
            ColorHistogramClassifier(bins=1)


class TestIoUTracker:
    def detection(self, x, label="cup"):
        return Detection(label, BBox(x, 10, x + 20, 40), 0.9)

    def test_stable_object_keeps_id(self):
        tracker = IoUTracker()
        for x in [10, 12, 14, 16]:
            tracks = tracker.update([self.detection(x)])
        assert len(tracks) == 1
        assert tracks[0].track_id == 1
        assert tracks[0].hits == 4

    def test_two_objects_two_tracks(self):
        tracker = IoUTracker()
        tracks = tracker.update([self.detection(10), self.detection(100)])
        assert sorted(t.track_id for t in tracks) == [1, 2]

    def test_disappearing_object_ages_out(self):
        tracker = IoUTracker(max_misses=2)
        tracker.update([self.detection(10)])
        for _ in range(3):
            tracker.update([])
        assert tracker.tracks == []

    def test_reappearing_far_object_gets_new_id(self):
        tracker = IoUTracker(max_misses=0)
        tracker.update([self.detection(10)])
        tracker.update([])  # miss kills it (max_misses=0)
        tracks = tracker.update([self.detection(10)])
        assert tracks[0].track_id == 2

    def test_jump_beyond_iou_threshold_starts_new_track(self):
        tracker = IoUTracker(iou_threshold=0.5)
        tracker.update([self.detection(10)])
        tracks = tracker.update([self.detection(120)])
        ids = sorted(t.track_id for t in tracks)
        assert ids == [1, 2]

    def test_greedy_matches_best_overlap_first(self):
        tracker = IoUTracker(iou_threshold=0.1)
        tracker.update([self.detection(10), self.detection(40)])
        tracks = tracker.update([self.detection(12), self.detection(42)])
        by_id = {t.track_id: t.bbox.x0 for t in tracks}
        assert by_id[1] == 12
        assert by_id[2] == 42

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            IoUTracker(iou_threshold=0.0)

