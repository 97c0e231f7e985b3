"""Unit tests for the autoscaler."""

import pytest

from repro.services import FunctionService, ServiceHost
from repro.services.scaling import COOLDOWN_S, AutoScaler, ScalingPolicy


def busy_host(home, cost=0.100, replicas=1):
    service = FunctionService("busy", lambda p, c: p, reference_cost_s=cost)
    return ServiceHost(home.kernel, home.desktop, service, home.transport,
                       replicas=replicas)


class TestScalingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingPolicy(check_interval_s=0)
        with pytest.raises(ValueError):
            ScalingPolicy(max_replicas=0)


class TestAutoScaler:
    def test_scales_up_under_sustained_queue(self, home):
        host = busy_host(home)
        policy = ScalingPolicy(check_interval_s=0.1, queue_threshold=1.0,
                               max_replicas=3)
        scaler = AutoScaler(home.kernel, policy)
        scaler.watch(host)
        scaler.start()

        def load():
            # sustained offered load of ~20 req/s against 10 req/s capacity
            while home.kernel.now < 3.0:
                host.call_local({})
                yield 0.05

        home.kernel.process(load())
        home.kernel.run(until=4.0)
        scaler.stop()
        home.kernel.run(until=4.2)
        assert host.replicas > 1
        assert scaler.actions
        action = scaler.actions[0]
        assert (action.controller, action.kind) == ("autoscaler", "scale_up")
        assert action.target == "busy@desktop"
        evidence = action.evidence
        assert evidence["to_replicas"] == evidence["from_replicas"] + 1
        assert evidence["avg_queue"] >= 1.0

    def test_respects_max_replicas(self, home):
        host = busy_host(home)
        policy = ScalingPolicy(check_interval_s=0.05, queue_threshold=0.5,
                               max_replicas=2)
        scaler = AutoScaler(home.kernel, policy)
        scaler.watch(host)
        scaler.start()

        def load():
            while home.kernel.now < 3.0:
                host.call_local({})
                yield 0.02

        home.kernel.process(load())
        home.kernel.run(until=3.5)
        scaler.stop()
        home.kernel.run(until=4.0)
        assert host.replicas == 2

    def test_idle_service_never_scales(self, home):
        host = busy_host(home)
        scaler = AutoScaler(home.kernel,
                            ScalingPolicy(check_interval_s=0.1))
        scaler.watch(host)
        scaler.start()
        home.kernel.run(until=2.0)
        scaler.stop()
        home.kernel.run(until=2.5)
        assert host.replicas == 1
        assert scaler.actions == []

    def test_start_is_idempotent(self, home):
        scaler = AutoScaler(home.kernel)
        scaler.start()
        scaler.start()
        scaler.stop()
        home.kernel.run(until=1.0)


class TestWindowAccounting:
    """Regression for the overlapping-window bug: ``del samples[:-window]``
    kept a full window after every decision, so one sustained episode
    re-triggered a scale-up on every subsequent tick."""

    def test_one_event_per_sustained_load_episode(self, home):
        host = busy_host(home)
        policy = ScalingPolicy(check_interval_s=0.1, queue_threshold=1.0,
                               max_replicas=6)
        scaler = AutoScaler(home.kernel, policy)
        scaler.watch(host)
        scaler.start()

        def load():
            # one sustained episode: heavy offered load for 1.5 s
            while home.kernel.now < 1.5:
                host.call_local({})
                yield 0.02

        home.kernel.process(load())
        home.kernel.run(until=1.5)
        ups = [a for a in scaler.actions if a.reason == "scale_up"]
        assert len(ups) == 1, (
            f"one episode produced {len(ups)} scale-ups: "
            f"{[(a.at, a.evidence['to_replicas']) for a in ups]}"
        )
        scaler.stop()

    def test_consecutive_events_respect_the_cooldown(self, home):
        host = busy_host(home)
        policy = ScalingPolicy(check_interval_s=0.1, queue_threshold=1.0,
                               max_replicas=6)
        scaler = AutoScaler(home.kernel, policy)
        scaler.watch(host)
        scaler.start()

        def load():
            while home.kernel.now < 5.0:
                host.call_local({})
                yield 0.02

        home.kernel.process(load())
        home.kernel.run(until=6.0)
        scaler.stop()
        assert len(scaler.actions) >= 2
        gaps = [b.at - a.at
                for a, b in zip(scaler.actions, scaler.actions[1:])]
        assert all(gap >= COOLDOWN_S for gap in gaps), gaps


class TestScaleDown:
    def test_sustained_idle_shrinks_back_to_min(self, home):
        host = busy_host(home)
        policy = ScalingPolicy(check_interval_s=0.1, queue_threshold=1.0,
                               max_replicas=4)
        scaler = AutoScaler(home.kernel, policy)
        scaler.watch(host)
        scaler.start()

        def load():
            while home.kernel.now < 2.0:
                host.call_local({})
                yield 0.02

        home.kernel.process(load())
        home.kernel.run(until=8.0)
        scaler.stop()
        assert any(a.kind == "scale_up" for a in scaler.actions)
        downs = [a for a in scaler.actions if a.kind == "scale_down"]
        assert downs, "idle service never scaled back down"
        assert host.replicas == 1
        for action in downs:
            evidence = action.evidence
            assert evidence["to_replicas"] == evidence["from_replicas"] - 1
            assert evidence["avg_queue"] == 0.0

    def test_never_shrinks_below_min_replicas(self, home):
        host = busy_host(home)
        scaler = AutoScaler(home.kernel,
                            ScalingPolicy(check_interval_s=0.1))
        scaler.watch(host)
        scaler.start()
        home.kernel.run(until=3.0)
        scaler.stop()
        assert host.replicas == 1
        assert scaler.actions == []


class TestLifecycle:
    def test_stop_cancels_the_pending_tick(self, home):
        scaler = AutoScaler(home.kernel,
                            ScalingPolicy(check_interval_s=10.0))
        scaler.start()
        assert home.kernel.pending_events > 0
        scaler.stop()
        # the pending tick is cancelled; nothing keeps the kernel alive for
        # the remainder of the 10 s period
        home.kernel.run()
        assert home.kernel.now < 10.0
        assert home.kernel.pending_events == 0

    def test_watch_is_idempotent_and_keyed_by_identity(self, home):
        host_a = busy_host(home)
        service_b = FunctionService("busy2", lambda p, c: p,
                                    reference_cost_s=0.1, default_port=7901)
        host_b = ServiceHost(home.kernel, home.desktop, service_b,
                             home.transport)
        scaler = AutoScaler(home.kernel)
        scaler.watch(host_a)
        scaler.watch(host_a)
        scaler.watch(host_b)
        assert len(scaler._hosts) == 2
        assert host_a in scaler._samples and host_b in scaler._samples
        # distinct host objects keep separate sample streams
        scaler._samples[host_a].append(5)
        assert scaler._samples[host_b] == []
