"""Unit tests for the monitoring component."""

import pytest

from repro.monitor import AlarmRule, Monitor
from repro.sim import Kernel


def probe_p(values):
    """A snapshot function that replays a list of {metric: value} dicts
    under probe ``p``, then repeats the last one."""
    state = {"i": 0}

    def read():
        i = min(state["i"], len(values) - 1)
        state["i"] += 1
        return {"p": values[i]}

    return read


@pytest.fixture
def kernel():
    return Kernel()


class TestMonitorBasics:
    def test_period_validated(self, kernel):
        with pytest.raises(ValueError):
            Monitor(kernel, dict, period_s=0)

    def test_every_numeric_leaf_is_a_sample_named_by_its_path(self, kernel):
        monitor = Monitor(kernel, lambda: {
            "device": {"phone": {"cpu": 0.5, "name": "phone"}},
            "slo": {"enrolled": 2, "ready": True, "queue": [1, 2],
                    "pipelines": {"fit": {"depth": 1, "state": "healthy"}}},
            "perf": {"batching": {"size_counts": {4: 3}}},
            "none": {"x": None},
        })
        assert [(s.probe, s.metric, s.value) for s in monitor.sample_once()] == [
            ("device/phone", "cpu", 0.5),
            ("slo", "enrolled", 2.0),
            ("slo", "ready", 1.0),
            ("slo/pipelines/fit", "depth", 1.0),
            ("perf/batching/size_counts", "4", 3.0),
        ]

    def test_periodic_sampling(self, kernel):
        monitor = Monitor(kernel, probe_p([{"x": 1.0}, {"x": 2.0}, {"x": 3.0}]),
                          period_s=0.5)
        monitor.start()
        kernel.run(until=1.6)
        series = monitor.series("p", "x")
        assert [v for _, v in series] == [1.0, 2.0, 3.0]
        assert [t for t, _ in series] == [0.5, 1.0, 1.5]

    def test_stop_halts_sampling(self, kernel):
        monitor = Monitor(kernel, probe_p([{"x": 1.0}]), period_s=0.5)
        monitor.start()
        kernel.run(until=1.1)
        monitor.stop()
        kernel.run(until=5.0)
        assert len(monitor.samples) == 2

    def test_latest(self, kernel):
        monitor = Monitor(kernel, probe_p([{"x": 1.0}, {"x": 9.0}]),
                          period_s=0.5)
        monitor.start()
        kernel.run(until=1.1)
        assert monitor.latest("p", "x") == 9.0
        assert monitor.latest("p", "ghost") is None

    def test_sample_cap(self, kernel):
        monitor = Monitor(kernel, lambda: {"p": {"x": 1.0}}, period_s=0.1,
                          keep_samples=5)
        monitor.start()
        kernel.run(until=3.0)
        assert len(monitor.samples) == 5

    def test_rate_from_counter(self, kernel):
        # counter grows by 5 per sample (=10/s)
        monitor = Monitor(kernel, probe_p(
            [{"done": float(5 * i)} for i in range(1, 20)]
        ), period_s=0.5)
        monitor.start()
        kernel.run(until=4.0)
        assert monitor.rate("p", "done", window_s=2.0) == pytest.approx(10.0)

    def test_rate_needs_two_points(self, kernel):
        monitor = Monitor(kernel, lambda: {"p": {"x": 1.0}}, period_s=0.5)
        assert monitor.rate("p", "x", 1.0) is None
        monitor.sample_once()
        assert monitor.rate("p", "x", 1.0) is None


class TestAlarms:
    def test_threshold_alarm_fires_once_per_streak(self, kernel):
        monitor = Monitor(kernel, probe_p(
            [{"q": 0.0}, {"q": 5.0}, {"q": 6.0}, {"q": 7.0}, {"q": 0.0},
             {"q": 8.0}, {"q": 9.0}]
        ), period_s=0.5)
        monitor.add_rule(AlarmRule("overload", "p", "q",
                                   lambda v: v > 4, for_samples=2))
        monitor.start()
        kernel.run(until=3.6)
        alarms = monitor.alarms_for("overload")
        assert len(alarms) == 2  # one per sustained streak
        assert alarms[0].value == 6.0  # the sample completing the streak

    def test_for_samples_validated(self):
        with pytest.raises(ValueError):
            AlarmRule("r", "p", "m", lambda v: True, for_samples=0)

    def test_rule_scoped_to_probe_and_metric(self, kernel):
        monitor = Monitor(kernel, lambda: {
            "a": {"x": 100.0}, "b": {"x": 0.0, "y": 100.0}}, period_s=0.5)
        monitor.add_rule(AlarmRule("high-x-on-b", "b", "x", lambda v: v > 50))
        monitor.start()
        kernel.run(until=2.0)
        assert monitor.alarms == []  # a/x and b/y never match the rule


class TestHomeIntegration:
    def test_monitor_watches_devices_services_pipelines(self, ):
        from repro.core import VideoPipe
        from repro.services import FunctionService

        home = VideoPipe.paper_testbed(seed=0)
        home.deploy_service(FunctionService("echo", lambda p, c: p,
                                            default_port=7500), "desktop")
        monitor = home.enable_monitoring()
        home.add_device("laptop")  # added after enabling: still probed
        home.run_for(2.0)
        probes = {sample.probe for sample in monitor.samples}
        assert {"device/phone", "device/laptop",
                "service/echo@desktop"} <= probes
        assert monitor.latest("device/phone", "cpu_utilization") is not None

    def test_live_fps_via_pipeline_probe(self, ):
        from repro.apps import (FitnessApp, fitness_pipeline_config,
                                install_fitness_services,
                                train_activity_recognizer)
        from repro.core import VideoPipe

        home = VideoPipe.paper_testbed(seed=1)
        services = install_fitness_services(
            home, recognizer=train_activity_recognizer(seed=1, train_subjects=2)
        )
        home.enable_monitoring()
        app = FitnessApp(home, services)
        app.deploy(fitness_pipeline_config(fps=10.0, duration_s=10.0))
        home.run(until=11.0)
        monitor = home.monitor
        live_fps = monitor.rate("pipeline/fitness", "frames_completed",
                                window_s=5.0)
        assert live_fps is not None
        assert 6.0 < live_fps < 11.0

    def test_enable_is_idempotent(self):
        from repro.core import VideoPipe

        home = VideoPipe.paper_testbed(seed=0)
        assert home.enable_monitoring() is home.enable_monitoring()
