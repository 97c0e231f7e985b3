"""Unit tests for the TraceRecorder frame lifecycle, its frame and host
events, and its span rows."""

from types import SimpleNamespace

import pytest

from repro.net.message import H_TRACE
from repro.trace import CAT_FRAME, CAT_MARK, TraceRecorder


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


class FakeCtx:
    """What the frame events read of a module context."""

    def __init__(self, module="sink", device="phone", pipeline="fitness"):
        self.module_name = module
        self.device_name = device
        self.wiring = SimpleNamespace(pipeline_name=pipeline)


class FakeHost:
    """What the service-host events read of a host (hashable, as a host
    is)."""

    def __init__(self, service="pose", device="desktop"):
        self.service_name = service
        self.device = SimpleNamespace(name=device)


def arrived(header, enqueued_at=0.0):
    """A module event carrying *header* as its trace context."""
    return SimpleNamespace(headers={H_TRACE: header}, enqueued_at=enqueued_at)


LOCAL_STUB = SimpleNamespace(is_local=True, last_prepare_s=0.0)


class TestRecording:
    def test_record_parents_to_given_context(self, kernel, recorder):
        header = recorder.admitted(FakeCtx("source", "camera"), 1)
        sink = FakeCtx("sink", "phone")
        kernel.now = 0.1
        recorder.handler_start(sink, arrived(header, enqueued_at=0.05))
        kernel.now = 0.4
        recorder.handler_end(sink, None, ok=True)
        wait, handler = recorder.spans[-2:]
        assert (wait.name, wait.parent_id) == ("mailbox.wait", header[1])
        assert (wait.start, wait.end) == (0.05, 0.1)
        assert handler.trace_id == header[0] == "fitness/1"
        assert handler.parent_id == header[1]
        assert handler.name == "module.sink"
        assert handler.device == "phone"
        assert (handler.start, handler.end) == (0.1, 0.4)
        assert handler.attrs == {"ok": True}

    def test_record_span_uses_preminted_identity(self, kernel, recorder):
        source = FakeCtx("source", "camera")
        root = recorder.admitted(source, 1)
        kernel.now = 0.1
        call = recorder.service_call(source, "pose", LOCAL_STUB)
        # the host's spans parent to the call before the call is recorded
        recorder.call_waited(FakeHost(), call, False, 0.2, 0.3)
        kernel.now = 0.5
        recorder.service_returned(source, "pose", LOCAL_STUB, call, True)
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["service.queue"].parent_id == call[1]
        assert by_name["service.queue"].actor == "service:pose"
        served = by_name["service.call:pose"]
        assert (served.span_id, served.parent_id) == (call[1], root[1])
        assert (served.start, served.end) == (0.1, 0.5)
        assert served.attrs == {"service": "pose", "ok": True}
        assert [s.name for s in recorder.spans] == \
            ["source.admit", "service.queue", "service.call:pose"]

    def test_child_context_ids_are_unique(self, recorder):
        source = FakeCtx("source")
        recorder.admitted(source, 1)
        ids = {recorder.service_call(source, "pose", LOCAL_STUB)[1]
               for _ in range(100)}
        assert len(ids) == 100

    def test_annotate_is_zero_duration_at_now(self, kernel, recorder):
        source = FakeCtx("source")
        call = recorder.service_call(source, "pose", LOCAL_STUB)
        assert call is None  # no frame admitted: the call is untraced
        recorder.admitted(source, 1)
        call = recorder.service_call(source, "pose", LOCAL_STUB)
        kernel.now = 3.25
        recorder.cache_hit(FakeHost(), call)
        recorder.cache_hit(FakeHost(), None)  # an untraced call's hit
        mark = recorder.spans[-1]
        assert (mark.name, mark.category) == ("cache.hit", CAT_MARK)
        assert mark.start == mark.end == 3.25
        assert mark.duration == 0.0
        assert mark.parent_id == call[1]
        assert mark.attrs == {}


class TestCapacity:
    def test_spans_past_the_cap_are_dropped_and_counted(self, kernel):
        recorder = TraceRecorder(kernel, max_spans=3)
        source = FakeCtx("source")
        recorder.admitted(source, 1)  # admission mark = span 1
        for stage in "abc":
            recorder.stage(source, stage, 0.0)
        assert recorder.span_count == 3
        assert recorder.dropped_spans == 1
        # the open frame still closes correctly (counted, not stored)
        recorder.frame_finished("fitness/1")
        assert recorder.open_frame_count == 0
        assert recorder.frames_finished == 1
        assert recorder.dropped_spans == 2

    def test_the_cap_counts_rows(self, kernel):
        recorder = TraceRecorder(kernel, max_spans=5)
        source = FakeCtx("source")
        for frame_id in range(4):  # admission mark, then the closed root
            recorder.admitted(source, frame_id)
            recorder.frame_finished(f"fitness/{frame_id}")
        assert recorder.span_count == 5 == len(recorder.spans)
        assert recorder.dropped_spans == 3
        assert [s.name for s in recorder.spans] == \
            ["source.admit", "frame", "source.admit", "frame", "source.admit"]


class TestRows:
    def test_reading_spans_twice_gives_equal_lists(self, kernel, recorder):
        source = FakeCtx("source")
        recorder.admitted(source, 1)
        recorder.stage(source, "pose", 0.0)
        first = recorder.spans
        assert recorder.spans == first
        first.clear()  # the caller's list, not the recorder's
        assert len(recorder.spans) == 2

    def test_a_read_after_more_records_sees_them(self, kernel, recorder):
        source = FakeCtx("source")
        recorder.admitted(source, 1)
        before = recorder.spans
        kernel.now = 1.0
        recorder.completed(source, 1)
        after = recorder.spans
        assert after[:len(before)] == before
        assert [s.name for s in after[len(before):]] == \
            ["frame.complete", "frame"]
        assert recorder.span_count == len(after) == 3


class TestIntrospection:
    def test_traces_groups_by_trace_id(self, recorder):
        a, b = FakeCtx("a"), FakeCtx("b")
        recorder.admitted(a, 1)
        recorder.admitted(b, 2)
        recorder.stage(a, "x", 0.0)
        recorder.stage(b, "y", 0.0)
        recorder.frame_finished("fitness/1")
        recorder.frame_finished("fitness/2")
        grouped = recorder.traces()
        assert set(grouped) == {"fitness/1", "fitness/2"}
        assert [s.name for s in grouped["fitness/1"]] == \
            ["source.admit", "stage.x", "frame"]

    def test_stats_roll_up(self, recorder):
        for frame_id in range(3):
            recorder.frame_started("fitness", frame_id)
        recorder.frame_finished("fitness/0")
        recorder.frame_dropped("fitness/1")
        assert recorder.frames_started == 3
        assert recorder.frames_finished == 1
        assert recorder.frames_dropped == 1
        assert recorder.open_frame_count == 1
