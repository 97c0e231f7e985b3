"""Unit tests for heartbeat-based failure detection."""

import pytest

from repro.core import VideoPipe
from repro.monitor import FailureDetector, failure_probe


@pytest.fixture
def home():
    return VideoPipe.paper_testbed(seed=2)


def enable(home, **kwargs):
    kwargs.setdefault("home_device", "tv")
    kwargs.setdefault("period_s", 0.25)
    kwargs.setdefault("miss_threshold", 2)
    return home.enable_failure_detection(**kwargs)


class TestDetection:
    def test_no_false_positives_when_healthy(self, home):
        detector = enable(home)
        home.run(until=10.0)
        assert detector.detections == 0
        assert detector.dead_devices() == []
        assert detector.probes_sent > 50
        assert detector.probes_failed == 0

    def test_watches_every_device_except_home(self, home):
        detector = enable(home)
        assert detector.watched() == ["desktop", "phone"]

    def test_detects_crash_within_threshold_periods(self, home):
        detector = enable(home)
        home.kernel.schedule(3.0, home.crash_device, "desktop")
        home.run(until=10.0)
        assert detector.is_dead("desktop")
        assert not detector.is_dead("phone")
        assert detector.detections == 1
        down = [e for e in detector.events if e.kind == "down"]
        # 2 missed probes at 0.25 s period + 0.25 s probe timeout + slack
        assert len(down) == 1
        assert 3.0 < down[0].at < 4.5

    def test_detects_partition_like_crash(self, home):
        """A partitioned device misses heartbeats exactly like a dead one —
        the detector cannot (and need not) tell the difference."""
        detector = enable(home)
        home.kernel.schedule(3.0, home.topology.partition, "phone")
        home.run(until=6.0)
        assert detector.is_dead("phone")

    def test_late_devices_are_watched_too(self, home):
        detector = enable(home)
        home.add_device("laptop")
        assert "laptop" in detector.watched()
        home.kernel.schedule(2.0, home.crash_device, "laptop")
        home.run(until=5.0)
        assert detector.is_dead("laptop")


class TestRecovery:
    def test_recovery_records_mttr(self, home):
        detector = enable(home)
        home.kernel.schedule(3.0, home.crash_device, "desktop")
        home.kernel.schedule(7.0, home.restart_device, "desktop")
        home.run(until=12.0)
        assert not detector.is_dead("desktop")
        assert detector.recoveries == 1
        assert len(detector.mttr_samples) == 1
        # the outage lasted ~4 s as the detector saw it
        assert 3.5 < detector.mttr_samples[0] < 5.5
        up = [e for e in detector.events if e.kind == "up"]
        assert up and up[0].mttr_s == detector.mttr_samples[0]

    def test_hooks_fire_on_transitions(self, home):
        detector = enable(home)
        transitions = []
        detector.on_down.append(lambda d: transitions.append(("down", d)))
        detector.on_up.append(lambda d: transitions.append(("up", d)))
        home.kernel.schedule(2.0, home.crash_device, "phone")
        home.kernel.schedule(5.0, home.restart_device, "phone")
        home.run(until=8.0)
        assert transitions == [("down", "phone"), ("up", "phone")]

    def test_mttr_stats(self, home):
        detector = enable(home)
        detector.mttr_samples.extend([2.0, 4.0])
        assert detector.mttr_mean() == 3.0
        assert detector.mttr_max() == 4.0


class TestMonitorIntegration:
    def test_failure_probe_lands_in_monitor_series(self, home):
        home.enable_monitoring()
        detector = enable(home)
        home.kernel.schedule(2.0, home.crash_device, "desktop")
        home.run(until=6.0)
        latest = home.monitor.latest("failures", "dead_devices")
        assert latest == 1.0
        assert home.monitor.latest("failures", "detections") == 1.0

    def test_enable_order_does_not_matter(self, home):
        """Detection first, monitoring second: the probe still registers."""
        detector = enable(home)
        home.enable_monitoring()
        home.run(until=2.0)
        assert home.monitor.latest("failures", "watched") == 2.0
