"""Unit tests for the critical-path walk, on hand-built span trees."""

import pytest

from repro.trace import (
    CAT_COMPUTE,
    CAT_FRAME,
    CAT_MARK,
    CAT_QUEUE,
    CAT_SERVICE,
    CAT_STAGE,
    CAT_WIRE,
    Span,
    critical_path,
)


def span(span_id, parent_id, name, category, start, end,
         trace_id="p/1", **attrs):
    return Span(trace_id, span_id, parent_id, name, category,
                start, end, attrs=attrs)


def root(start, end, trace_id="p/1", outcome="completed"):
    return Span(trace_id, 1, None, "frame", CAT_FRAME, start, end,
                attrs={"outcome": outcome})


class TestDecomposition:
    def test_partition_sums_to_root_duration(self):
        # root [0, 10]: queue [0,2] -> compute [2,7] -> wire [7,9], gap [9,10]
        spans = [
            root(0.0, 10.0),
            span(2, 1, "mailbox.wait", CAT_QUEUE, 0.0, 2.0),
            span(3, 1, "module.x", CAT_COMPUTE, 2.0, 7.0),
            span(4, 1, "wire.transfer", CAT_WIRE, 7.0, 9.0),
        ]
        report = critical_path(spans)
        (frame,) = report.frames
        assert frame.total_s == pytest.approx(10.0)
        assert frame.by_category[CAT_QUEUE] == pytest.approx(2.0)
        assert frame.by_category[CAT_COMPUTE] == pytest.approx(5.0)
        assert frame.by_category[CAT_WIRE] == pytest.approx(2.0)
        # the uncovered [9, 10] tail is charged to the root's own category
        assert frame.by_category[CAT_FRAME] == pytest.approx(1.0)
        assert sum(frame.by_category.values()) == pytest.approx(10.0)

    def test_nested_children_attribute_to_leaf_categories(self):
        # handler [1, 9] under root [0, 10]; inside it a service call
        # envelope [2, 8] that is mostly queue [3, 7].
        spans = [
            root(0.0, 10.0),
            span(2, 1, "module.x", CAT_COMPUTE, 1.0, 9.0),
            span(3, 2, "service.call:pose", CAT_SERVICE, 2.0, 8.0),
            span(4, 3, "service.queue", CAT_QUEUE, 3.0, 7.0),
        ]
        (frame,) = critical_path(spans).frames
        assert frame.by_category[CAT_FRAME] == pytest.approx(2.0)  # [0,1]+[9,10]
        assert frame.by_category[CAT_COMPUTE] == pytest.approx(2.0)  # [1,2]+[8,9]
        assert frame.by_category[CAT_SERVICE] == pytest.approx(2.0)  # [2,3]+[7,8]
        assert frame.by_category[CAT_QUEUE] == pytest.approx(4.0)  # [3,7]
        assert sum(frame.by_category.values()) == pytest.approx(10.0)

    def test_gap_between_children_charged_to_parent(self):
        spans = [
            root(0.0, 6.0),
            span(2, 1, "module.a", CAT_COMPUTE, 0.0, 2.0),
            span(3, 1, "module.b", CAT_COMPUTE, 4.0, 6.0),
        ]
        (frame,) = critical_path(spans).frames
        assert frame.by_category[CAT_COMPUTE] == pytest.approx(4.0)
        assert frame.by_category[CAT_FRAME] == pytest.approx(2.0)  # [2,4]

    def test_child_outliving_root_is_clipped(self):
        # the sink handler keeps running after it marked the frame complete
        spans = [
            root(0.0, 5.0),
            span(2, 1, "module.sink", CAT_COMPUTE, 3.0, 8.0),
        ]
        (frame,) = critical_path(spans).frames
        assert frame.total_s == pytest.approx(5.0)
        assert frame.by_category[CAT_COMPUTE] == pytest.approx(2.0)  # [3,5]
        assert sum(frame.by_category.values()) == pytest.approx(5.0)

    def test_faster_parallel_branch_is_skipped(self):
        # two children overlap; the one ending later owns the window and
        # the faster sibling contributes nothing.
        spans = [
            root(0.0, 10.0),
            span(2, 1, "module.slow", CAT_COMPUTE, 0.0, 10.0),
            span(3, 1, "module.fast", CAT_WIRE, 0.0, 4.0),
        ]
        (frame,) = critical_path(spans).frames
        assert frame.by_category == {CAT_COMPUTE: pytest.approx(10.0)}

    def test_marks_are_ignored_by_the_walk(self):
        spans = [
            root(0.0, 4.0),
            span(2, 1, "cache.hit", CAT_MARK, 2.0, 2.0),
        ]
        (frame,) = critical_path(spans).frames
        assert frame.by_category == {CAT_FRAME: pytest.approx(4.0)}


class TestStageSamples:
    def test_stage_spans_aggregate_separately(self):
        spans = [
            root(0.0, 4.0),
            span(2, 1, "stage.pose_detection", CAT_STAGE, 1.0, 2.0),
            span(3, 1, "stage.pose_detection", CAT_STAGE, 2.0, 4.0),
            span(4, 1, "stage.total_duration", CAT_STAGE, 0.0, 4.0),
        ]
        report = critical_path(spans)
        assert report.stage_samples["pose_detection"] == \
            pytest.approx([1.0, 2.0])
        assert report.stage_means_ms() == {
            "pose_detection": pytest.approx(1500.0),
            "total_duration": pytest.approx(4000.0),
        }
        # stage spans do not perturb the walk
        (frame,) = report.frames
        assert frame.by_category == {CAT_FRAME: pytest.approx(4.0)}


class TestRootSelection:
    def test_dropped_and_open_roots_count_as_unfinished(self):
        spans = [
            root(0.0, 4.0, trace_id="p/1"),
            root(0.0, 2.0, trace_id="p/2", outcome="dropped"),
            # p/3 has activity but no root span at all (still in flight)
            span(9, 1, "module.x", CAT_COMPUTE, 0.0, 1.0, trace_id="p/3"),
        ]
        report = critical_path(spans)
        assert report.frame_count == 1
        assert report.unfinished == 2

    def test_pipeline_filter_selects_by_prefix(self):
        spans = [
            root(0.0, 4.0, trace_id="fitness/1"),
            root(0.0, 2.0, trace_id="scene/1"),
        ]
        report = critical_path(spans, pipeline="fitness")
        assert [f.trace_id for f in report.frames] == ["fitness/1"]
        # exact prefix: "fit" is not the pipeline "fitness"
        assert critical_path(spans, pipeline="fit").frame_count == 0

    def test_accepts_a_recorder_like_source(self):
        class FakeRecorder:
            spans = [root(0.0, 1.0)]

        assert critical_path(FakeRecorder()).frame_count == 1


class TestReportAggregates:
    def test_category_means_average_over_frames(self):
        spans = [
            root(0.0, 2.0, trace_id="p/1"),
            Span("p/1", 2, 1, "module.x", CAT_COMPUTE, 0.0, 2.0),
            root(0.0, 4.0, trace_id="p/2"),
            Span("p/2", 3, 1, "module.x", CAT_COMPUTE, 0.0, 4.0),
        ]
        report = critical_path(spans)
        assert [f.total_s for f in report.frames] == [2.0, 4.0]
        assert report.category_means_ms() == {
            CAT_COMPUTE: pytest.approx(3000.0),
        }
        assert report.category_totals_s() == {CAT_COMPUTE: pytest.approx(6.0)}

    def test_empty_report(self):
        report = critical_path([])
        assert report.frame_count == 0
        assert report.category_means_ms() == {}
        assert report.stage_means_ms() == {}

    def test_share(self):
        (frame,) = critical_path([
            root(0.0, 4.0),
            span(2, 1, "module.x", CAT_COMPUTE, 0.0, 3.0),
        ]).frames
        assert frame.by_category[CAT_COMPUTE] / frame.total_s == \
            pytest.approx(0.75)
        assert frame.by_category.get(CAT_WIRE, 0.0) == 0.0
