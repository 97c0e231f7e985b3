"""Unit tests for the TraceRecorder frame lifecycle and span bookkeeping."""

import pytest

from repro.trace import (
    CAT_COMPUTE,
    CAT_FRAME,
    CAT_MARK,
    CAT_QUEUE,
    SpanContext,
    TraceRecorder,
)


class FakeKernel:
    """The recorder only reads the clock; a settable `now` is enough."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def kernel():
    return FakeKernel()


@pytest.fixture
def recorder(kernel):
    return TraceRecorder(kernel)


def root_spans(recorder):
    return [s for s in recorder.spans if s.category == CAT_FRAME]


class TestFrameLifecycle:
    def test_started_opens_root_and_annotates_admission(self, kernel, recorder):
        kernel.now = 1.5
        ctx = recorder.frame_started("fitness", 3, device="camera",
                                     actor="module:source")
        assert ctx.trace_id == "fitness/3"
        assert ctx.parent_id is None
        assert recorder.open_frame_count == 1
        assert recorder.frames_started == 1
        # the admission marker is recorded immediately, under the root
        (admit,) = recorder.spans
        assert admit.name == "source.admit"
        assert admit.category == CAT_MARK
        assert admit.parent_id == ctx.span_id
        assert admit.start == admit.end == 1.5

    def test_finished_closes_root_with_completion_outcome(self, kernel, recorder):
        kernel.now = 1.0
        ctx = recorder.frame_started("fitness", 3)
        kernel.now = 2.25
        recorder.frame_finished(ctx.trace_id, latency_s=1.25)
        assert recorder.open_frame_count == 0
        assert recorder.frames_finished == 1
        (root,) = root_spans(recorder)
        assert root.span_id == ctx.span_id
        assert (root.start, root.end) == (1.0, 2.25)
        assert root.attrs["outcome"] == "completed"
        assert root.attrs["latency_s"] == 1.25

    def test_dropped_closes_root_with_dropped_outcome(self, kernel, recorder):
        ctx = recorder.frame_started("fitness", 3)
        kernel.now = 0.5
        recorder.frame_dropped(ctx.trace_id, reason="chaos")
        assert recorder.frames_dropped == 1
        (root,) = root_spans(recorder)
        assert root.attrs == {"outcome": "dropped", "reason": "chaos"}

    def test_finish_of_untraced_frame_is_a_noop(self, recorder):
        # tracing enabled mid-run: completions of pre-tracing frames arrive
        recorder.frame_finished("fitness/99")
        recorder.frame_dropped("fitness/98")
        assert recorder.spans == []
        assert recorder.frames_finished == 0
        assert recorder.frames_dropped == 0

    def test_duplicate_admission_supersedes_stale_root(self, kernel, recorder):
        first = recorder.frame_started("fitness", 3)
        kernel.now = 1.0
        second = recorder.frame_started("fitness", 3)
        assert second.span_id != first.span_id
        assert recorder.open_frame_count == 1
        (stale,) = root_spans(recorder)
        assert stale.span_id == first.span_id
        assert stale.attrs["outcome"] == "superseded"
        kernel.now = 2.0
        recorder.frame_finished("fitness/3")
        completed = [s for s in root_spans(recorder)
                     if s.attrs["outcome"] == "completed"]
        assert [s.span_id for s in completed] == [second.span_id]


class TestRecording:
    def test_record_parents_to_given_context(self, recorder):
        root = recorder.frame_started("fitness", 1)
        child = recorder.record("module.sink", CAT_COMPUTE, parent=root,
                                start=0.1, end=0.4, device="phone",
                                actor="module:sink", ok=True)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        span = recorder.spans[-1]
        assert span.name == "module.sink"
        assert span.device == "phone"
        assert span.attrs == {"ok": True}

    def test_record_span_uses_preminted_identity(self, recorder):
        root = recorder.frame_started("fitness", 1)
        ctx = recorder.child_context(root)
        # a grandchild can parent to ctx before ctx itself is recorded
        recorder.record("service.queue", CAT_QUEUE, parent=ctx,
                        start=0.2, end=0.3)
        recorder.record_span(ctx, "service.call:pose", CAT_COMPUTE,
                             start=0.1, end=0.5)
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["service.queue"].parent_id == ctx.span_id
        assert by_name["service.call:pose"].span_id == ctx.span_id
        assert by_name["service.call:pose"].parent_id == root.span_id

    def test_child_context_ids_are_unique(self, recorder):
        root = recorder.frame_started("fitness", 1)
        ids = {recorder.child_context(root).span_id for _ in range(100)}
        assert len(ids) == 100

    def test_annotate_is_zero_duration_at_now(self, kernel, recorder):
        root = recorder.frame_started("fitness", 1)
        kernel.now = 3.25
        recorder.annotate("cache.hit", parent=root, key="pose:abc")
        mark = recorder.spans[-1]
        assert mark.category == CAT_MARK
        assert mark.start == mark.end == 3.25
        assert mark.duration == 0.0
        assert mark.attrs["key"] == "pose:abc"


class TestCapacity:
    def test_spans_past_the_cap_are_dropped_and_counted(self, kernel):
        recorder = TraceRecorder(kernel, max_spans=3)
        root = recorder.frame_started("fitness", 1)  # admission mark = span 1
        recorder.record("a", CAT_COMPUTE, parent=root, start=0, end=1)
        recorder.record("b", CAT_COMPUTE, parent=root, start=0, end=1)
        recorder.record("c", CAT_COMPUTE, parent=root, start=0, end=1)
        assert recorder.span_count == 3
        assert recorder.dropped_spans == 1
        # the open frame still closes correctly (counted, not stored)
        recorder.frame_finished("fitness/1")
        assert recorder.open_frame_count == 0
        assert recorder.frames_finished == 1
        assert recorder.dropped_spans == 2


class TestIntrospection:
    def test_traces_groups_by_trace_id(self, recorder):
        a = recorder.frame_started("fitness", 1)
        b = recorder.frame_started("fitness", 2)
        recorder.record("x", CAT_COMPUTE, parent=a, start=0, end=1)
        recorder.record("y", CAT_COMPUTE, parent=b, start=0, end=1)
        recorder.frame_finished(a.trace_id)
        recorder.frame_finished(b.trace_id)
        grouped = recorder.traces()
        assert set(grouped) == {"fitness/1", "fitness/2"}
        assert [s.name for s in grouped["fitness/1"]] == \
            ["source.admit", "x", "frame"]

    def test_stats_roll_up(self, recorder):
        for frame_id in range(3):
            recorder.frame_started("fitness", frame_id)
        recorder.frame_finished("fitness/0")
        recorder.frame_dropped("fitness/1")
        assert recorder.frames_started == 3
        assert recorder.frames_finished == 1
        assert recorder.frames_dropped == 1
        assert recorder.open_frame_count == 1
