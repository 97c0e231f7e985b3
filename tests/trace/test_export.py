"""Unit tests for the Chrome trace-event exporter."""

import json

import pytest

from repro.trace import (
    CAT_COMPUTE,
    CAT_FRAME,
    CAT_MARK,
    Span,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.trace.export import chrome_trace_events


def make_spans():
    return [
        Span("p/1", 1, None, "frame", CAT_FRAME, 0.0, 0.010,
             device="camera", actor="module:source",
             attrs={"outcome": "completed"}),
        Span("p/1", 2, 1, "module.pose", CAT_COMPUTE, 0.001, 0.004,
             device="desktop", actor="module:pose"),
        Span("p/1", 3, 1, "cache.hit", CAT_MARK, 0.004, 0.004,
             device="desktop", actor="service:pose_detector"),
    ]


class TestEvents:
    def test_metadata_names_processes_and_threads(self):
        events = chrome_trace_events(make_spans())
        meta = [e for e in events if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert process_names == {"camera", "desktop"}
        assert thread_names == {"module:source", "module:pose",
                                "service:pose_detector"}

    def test_timed_spans_become_complete_events_in_microseconds(self):
        events = chrome_trace_events(make_spans())
        (pose,) = [e for e in events if e["name"] == "module.pose"]
        assert pose["ph"] == "X"
        assert pose["cat"] == CAT_COMPUTE
        assert pose["ts"] == pytest.approx(1000.0)
        assert pose["dur"] == pytest.approx(3000.0)

    def test_zero_duration_spans_become_thread_instants(self):
        events = chrome_trace_events(make_spans())
        (hit,) = [e for e in events if e["name"] == "cache.hit"]
        assert hit["ph"] == "i"
        assert hit["s"] == "t"
        assert "dur" not in hit

    def test_args_carry_span_identity_and_attrs(self):
        events = chrome_trace_events(make_spans())
        (frame,) = [e for e in events if e["name"] == "frame"]
        assert frame["args"]["trace_id"] == "p/1"
        assert frame["args"]["span_id"] == 1
        assert frame["args"]["parent_id"] is None
        assert frame["args"]["outcome"] == "completed"

    def test_lane_assignment_is_stable(self):
        spans = make_spans()
        first = chrome_trace_events(spans)
        second = chrome_trace_events(list(reversed(spans)))
        lanes = lambda events: {  # noqa: E731
            e["name"]: (e["pid"], e["tid"])
            for e in events if e["ph"] != "M"
        }
        assert lanes(first) == lanes(second)

    def test_spans_sharing_a_device_share_a_pid(self):
        events = chrome_trace_events(make_spans())
        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        assert by_name["module.pose"]["pid"] == by_name["cache.hit"]["pid"]
        assert by_name["module.pose"]["tid"] != by_name["cache.hit"]["tid"]

    def test_missing_device_and_actor_get_placeholders(self):
        events = chrome_trace_events([
            Span("p/1", 1, None, "frame", CAT_FRAME, 0.0, 1.0),
        ])
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"home", "-"}


class TestDocument:
    def test_to_chrome_trace_shape(self):
        doc = to_chrome_trace(make_spans())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["exporter"] == "repro.trace"
        # metadata (3 lanes + 2 processes) + 3 span events
        assert len(doc["traceEvents"]) == 8

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = write_chrome_trace(make_spans(), str(path))
        assert returned == str(path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 8
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_write_accepts_a_recorder_like_source(self, tmp_path):
        class FakeRecorder:
            spans = make_spans()

        path = tmp_path / "trace.json"
        write_chrome_trace(FakeRecorder(), str(path))
        doc = json.loads(path.read_text())
        assert any(e["name"] == "frame" for e in doc["traceEvents"])
