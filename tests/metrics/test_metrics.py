"""Unit tests for the metrics package."""

import pytest

from repro.metrics import MetricsCollector, format_table, summarize
from repro.metrics.stats import RateMeter


class TestSummarize:
    def test_basic_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentiles_ordered(self):
        summary = summarize(range(100))
        assert summary.p50 <= summary.p90 <= summary.p99 <= summary.maximum

    def test_scaled(self):
        ms = summarize([0.5]).scaled(1e3)
        assert ms.mean == 500.0
        assert ms.count == 1

    def test_as_dict_keys(self):
        d = summarize([1.0]).as_dict()
        assert set(d) == {"count", "mean", "std", "min", "p50", "p90", "p99", "max"}


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter()
        for t in [0.5, 1.0, 1.5, 2.0]:
            meter.tick(t)
        assert meter.rate(end_time=2.0) == pytest.approx(2.0)
        assert meter.count == 4

    def test_warmup_excluded(self):
        meter = RateMeter()
        for t in [0.1, 0.2, 1.5, 2.0]:
            meter.tick(t)
        assert meter.rate(end_time=2.0, warmup_s=1.0) == pytest.approx(2.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            RateMeter().rate(end_time=1.0, warmup_s=1.0)

    def test_ticks_after_end_time_excluded(self):
        """Regression: ticks past ``end_time`` (a meter read mid-run, or a
        meter reused across windows) must not inflate the rate."""
        meter = RateMeter()
        for t in [0.5, 1.0, 1.5, 2.0, 2.5, 7.0]:
            meter.tick(t)
        assert meter.rate(end_time=2.0) == pytest.approx(2.0)
        assert meter.rate(end_time=2.0, warmup_s=1.0) == pytest.approx(3.0)
        # the full window still sees everything
        assert meter.rate(end_time=7.0) == pytest.approx(6.0 / 7.0)

    def test_window_edges_are_inclusive(self):
        meter = RateMeter()
        meter.tick(1.0)
        meter.tick(2.0)
        assert meter.rate(end_time=2.0, warmup_s=1.0) == pytest.approx(2.0)


class TestMetricsCollector:
    def test_stage_recording(self):
        collector = MetricsCollector("p")
        collector.record_stage("pose", 0.05)
        collector.record_stage("pose", 0.07)
        assert collector.stage_names() == ["pose"]
        assert collector.stage_summary("pose").mean == pytest.approx(0.06)
        assert collector.stage_means_ms()["pose"] == pytest.approx(60.0)

    def test_frame_lifecycle(self):
        collector = MetricsCollector("p")
        collector.frame_entered(1, 0.0)
        collector.frame_entered(2, 0.1)
        collector.frame_completed(1, 0.09)
        collector.frame_completed(2, 0.21)
        assert collector.counter("frames_entered") == 2
        assert collector.counter("frames_completed") == 2
        latency = collector.total_latency_summary()
        assert latency.count == 2
        assert latency.mean == pytest.approx(0.10)

    def test_completion_without_entry_still_counts(self):
        collector = MetricsCollector("p")
        collector.frame_completed(99, 1.0)
        assert collector.counter("frames_completed") == 1
        assert collector.total_latencies == []

    def test_throughput(self):
        collector = MetricsCollector("p")
        for i in range(10):
            collector.frame_completed(i, 0.1 * (i + 1))
        assert collector.throughput_fps(end_time=1.0) == pytest.approx(10.0)

    def test_counters(self):
        collector = MetricsCollector("p")
        collector.increment("drops")
        collector.increment("drops", 4)
        assert collector.counter("drops") == 5
        assert collector.counter("missing") == 0
        assert collector.counters() == {"drops": 5}

    def test_frame_dropped_prunes_start_entry(self):
        """Regression: a frame dropped mid-flight used to leak its
        ``_frame_started`` slot for the rest of the run."""
        collector = MetricsCollector("p")
        collector.frame_entered(1, 0.0)
        collector.frame_entered(2, 0.1)
        assert collector.frames_in_flight == 2
        collector.frame_dropped(1, 0.5)
        assert collector.frames_in_flight == 1
        assert collector.counter("frames_dropped") == 1
        # a late completion of the dropped frame records no bogus latency
        collector.frame_completed(1, 9.0)
        assert collector.total_latencies == []
        collector.frame_completed(2, 0.3)
        assert collector.total_latencies == [pytest.approx(0.2)]

    def test_frame_dropped_before_admission_is_safe(self):
        """The source drops frames it never admitted (no credit); those
        still count, without a start entry to prune."""
        collector = MetricsCollector("p")
        collector.frame_dropped(42, 1.0)
        assert collector.counter("frames_dropped") == 1
        assert collector.frames_in_flight == 0

    def test_empty_summaries_do_not_raise(self):
        """Regression: ``stage_summary``/``total_latency_summary`` raised
        ValueError (and ``stage_summary`` grew a phantom stage via the
        defaultdict) when nothing was recorded."""
        collector = MetricsCollector("p")
        summary = collector.stage_summary("never_recorded")
        assert summary.count == 0
        assert summary.mean == 0.0
        assert collector.stage_names() == []  # no defaultdict side effect
        latency = collector.total_latency_summary()
        assert latency.count == 0
        assert collector.stage_means_ms() == {}


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(
            ["Source FPS", "VideoPipe", "Baseline"],
            [[5, 4.53, 4.52], [10, 8.21, 7.79]],
            title="Table 2",
        )
        lines = text.splitlines()
        assert lines[0] == "Table 2"
        assert "Source FPS" in lines[1]
        assert "4.53" in text
        # all data rows share the header's width
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1
