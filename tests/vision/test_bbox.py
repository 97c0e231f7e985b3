"""Unit tests for bounding boxes."""

import pytest

from repro.vision import BBox


class TestBBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 5, 5)
        with pytest.raises(ValueError):
            BBox(0, 10, 5, 5)

    def test_geometry(self):
        box = BBox(0, 0, 4, 2)
        assert box.width == 4
        assert box.height == 2
        assert box.area == 8

    def test_identical_boxes_iou_one(self):
        box = BBox(1, 2, 5, 8)
        assert box.iou(box) == pytest.approx(1.0)

    def test_disjoint_boxes_iou_zero(self):
        assert BBox(0, 0, 1, 1).iou(BBox(5, 5, 6, 6)) == 0.0

    def test_touching_boxes_iou_zero(self):
        assert BBox(0, 0, 1, 1).iou(BBox(1, 0, 2, 1)) == 0.0

    def test_half_overlap(self):
        a = BBox(0, 0, 2, 2)
        b = BBox(1, 0, 3, 2)
        # intersection 2, union 6
        assert a.iou(b) == pytest.approx(1 / 3)

    def test_iou_symmetric(self):
        a = BBox(0, 0, 3, 3)
        b = BBox(1, 1, 5, 4)
        assert a.iou(b) == pytest.approx(b.iou(a))

    def test_zero_area_boxes(self):
        point = BBox(1, 1, 1, 1)
        assert point.area == 0
        assert point.iou(point) == 0.0  # degenerate union guard

    def test_as_tuple(self):
        assert BBox(1, 2, 3, 4).as_tuple() == (1, 2, 3, 4)
