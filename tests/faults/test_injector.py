"""Unit tests for the chaos injector against a real VideoPipe home."""

import pytest

from repro.core import VideoPipe
from repro.errors import FaultError
from repro.faults import ChaosInjector, FaultPlan
from repro.net import Address, Message
from repro.services import FunctionService


@pytest.fixture
def home():
    return VideoPipe.paper_testbed(seed=3)


def send(home, dst_device, port=7700):
    return home.transport.send(Message(
        kind="data", dst=Address(dst_device, port),
        src=Address("phone", 1000)))


class TestArming:
    def test_enable_fault_injection_arms_once(self, home):
        injector = home.enable_fault_injection(
            FaultPlan().device_crash(1.0, "desktop"))
        assert injector.armed
        with pytest.raises(Exception):
            home.enable_fault_injection(FaultPlan())

    def test_rearming_raises(self, home):
        injector = ChaosInjector(home, FaultPlan())
        injector.arm()
        with pytest.raises(FaultError):
            injector.arm()

    def test_unknown_device_rejected_at_arm_time(self, home):
        injector = ChaosInjector(
            home, FaultPlan().device_crash(1.0, "toaster"))
        with pytest.raises(FaultError):
            injector.arm()

    def test_unknown_service_rejected_at_arm_time(self, home):
        injector = ChaosInjector(
            home, FaultPlan().service_crash(1.0, "pose_detector", "desktop"))
        with pytest.raises(FaultError):
            injector.arm()

    def test_past_event_rejected(self, home):
        home.run(until=5.0)
        injector = ChaosInjector(
            home, FaultPlan().device_crash(1.0, "desktop"))
        with pytest.raises(FaultError):
            injector.arm()


class TestDeviceFaults:
    def test_crash_flips_device_and_network_state(self, home):
        home.enable_fault_injection(
            FaultPlan().device_crash(1.0, "desktop", down_for=2.0))
        home.run(until=1.5)
        assert not home.device("desktop").up
        assert not home.topology.device_is_up("desktop")
        done = send(home, "desktop")
        home.run(until=2.0)
        assert done.failed
        home.run(until=3.5)
        assert home.device("desktop").up
        assert home.topology.device_is_up("desktop")

    def test_crash_drops_hosted_service(self, home):
        host = home.deploy_service(
            FunctionService("echo", lambda p, c: p, reference_cost_s=0.5),
            "desktop")
        result = host.call_local({})
        home.enable_fault_injection(FaultPlan().device_crash(0.1, "desktop"))
        home.run(until=1.0)
        assert result.failed
        assert host.crashes == 1


class TestLinkFaults:
    def test_partition_and_heal(self, home):
        home.enable_fault_injection(
            FaultPlan().partition(1.0, "tv", heal_after=2.0))
        home.run(until=1.5)
        assert home.topology.is_partitioned("tv")
        assert home.device("tv").up  # the device itself stays powered
        home.run(until=3.5)
        assert not home.topology.is_partitioned("tv")

    def test_latency_spike_raises_then_restores(self, home):
        links = home.topology.incident_links("phone")
        assert links
        before = [link.extra_latency_s for link in links]
        home.enable_fault_injection(
            FaultPlan().latency_spike(1.0, "phone", extra_latency_s=0.25,
                                      duration_s=2.0))
        home.run(until=1.5)
        assert all(link.extra_latency_s == pytest.approx(b + 0.25)
                   for link, b in zip(links, before))
        home.run(until=3.5)
        assert [link.extra_latency_s for link in links] == before

    def test_latency_spike_applies_to_transfers_requested_after_it(self):
        """A link reads ``extra_latency_s`` when a transfer is requested. A
        transfer requested at 0.9 s whose 0.2 s of phone airtime spans the
        spike at 1.0 s arrives as without the spike; one requested at
        1.5 s, inside the spike, arrives about 0.25 s later."""

        def arrivals(spike):
            home = VideoPipe.paper_testbed(seed=3)
            if spike:
                home.enable_fault_injection(FaultPlan().latency_spike(
                    1.0, "phone", extra_latency_s=0.25, duration_s=2.0))
            sent = {}
            for tag, at, nbytes in (("before", 0.9, 3_000_000), ("after", 1.5, 1_000)):
                home.kernel.schedule(
                    at, home.topology.transfer, "phone", "desktop", nbytes,
                    lambda tag, arrived, _exc: sent.setdefault(tag, arrived), tag)
            home.run(until=5.0)
            return sent

        quiet, spiked = arrivals(False), arrivals(True)
        assert spiked["before"] == quiet["before"]
        assert spiked["after"] - quiet["after"] == pytest.approx(0.25)


class TestServiceFaults:
    def test_service_crash_hits_one_host_only(self, home):
        home.add_device("laptop")
        echo = FunctionService("echo", lambda p, c: p, reference_cost_s=0.01)
        primary = home.deploy_service(echo, "desktop")
        standby = home.deploy_service(
            FunctionService("echo", lambda p, c: p, reference_cost_s=0.01),
            "laptop")
        home.enable_fault_injection(
            FaultPlan().service_crash(1.0, "echo", "desktop", down_for=2.0))
        home.run(until=1.5)
        assert not primary.up
        assert standby.up
        assert home.device("desktop").up  # process fault, not power fault
        home.run(until=3.5)
        assert primary.up


class TestTrace:
    def test_trace_records_fired_events_in_order(self, home):
        home.enable_fault_injection(
            FaultPlan()
            .partition(2.0, "tv", heal_after=1.0)
            .device_crash(1.0, "desktop", down_for=3.0))
        home.run(until=5.0)
        injector = home.injector
        assert injector.faults_injected == 4
        assert [(t, k, target) for t, k, target in injector.trace] == [
            (1.0, "device_crash", "desktop"),
            (2.0, "link_partition", "tv"),
            (3.0, "link_heal", "tv"),
            (4.0, "device_restart", "desktop"),
        ]
