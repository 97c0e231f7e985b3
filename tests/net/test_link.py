"""Unit tests for the link model."""

import pytest

from repro.net import Link, LinkSpec, Topology
from repro.net.link import Medium
from repro.sim import Kernel, RngStreams

from ..outcomes import Outcome


@pytest.fixture
def kernel():
    return Kernel()


def rng():
    return RngStreams(seed=1).stream("test-link")


class TestLinkSpec:
    def test_transmission_time(self):
        spec = LinkSpec(bandwidth_bps=100e6)
        # 45 KB at 100 Mbit/s = 3.6 ms
        assert spec.transmission_time(45000) == pytest.approx(0.0036)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(latency_s=-1)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkSpec(loss_prob=1.5)


class TestLinkTransfer:
    def test_deterministic_delay_without_jitter(self, kernel):
        spec = LinkSpec(latency_s=0.002, jitter_cv=0.0, bandwidth_bps=100e6)
        link = Link(kernel, spec, rng())
        assert link.transfer(45000) == pytest.approx(0.002 + 0.0036)

    def test_transfers_serialize_on_medium(self, kernel):
        spec = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)
        link = Link(kernel, spec, rng())
        first = link.transfer(125000)  # 1 second of airtime
        second = link.transfer(125000)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_shared_medium_couples_two_links(self, kernel):
        spec = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)
        medium = Medium()
        link_a = Link(kernel, spec, rng(), medium=medium)
        link_b = Link(kernel, spec, rng(), medium=medium)
        first = link_a.transfer(125000)
        second = link_b.transfer(125000)  # must wait for link_a's airtime
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_private_media_do_not_couple(self, kernel):
        spec = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)
        link_a = Link(kernel, spec, rng())
        link_b = Link(kernel, spec, rng())
        first = link_a.transfer(125000)
        second = link_b.transfer(125000)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(1.0)

    def test_loss_adds_retransmit_penalty(self, kernel):
        spec = LinkSpec(
            latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e9,
            loss_prob=0.999999, retransmit_penalty_s=0.5,
        )
        link = Link(kernel, spec, rng())
        assert link.transfer(1000) >= 0.5
        assert link.retransmits == 1

    def test_counters(self, kernel):
        link = Link(kernel, LinkSpec(jitter_cv=0.0), rng())
        link.transfer(100)
        link.transfer(200)
        assert link.messages_sent == 2
        assert link.bytes_sent == 300

    def test_expected_delay(self):
        spec = LinkSpec(latency_s=0.002, jitter_cv=0.3, bandwidth_bps=100e6)
        link = Link(Kernel(), spec, rng())
        assert link.expected_delay(45000) == pytest.approx(0.0056)

    def test_jitter_produces_variation_with_correct_mean(self, kernel):
        spec = LinkSpec(latency_s=0.010, jitter_cv=0.3, bandwidth_bps=1e12)
        link = Link(kernel, spec, rng())
        # arrival deltas ~ latency draws; mean should be near 10 ms
        arrivals = sorted(link.transfer(1) for _ in range(400))
        assert min(arrivals) != max(arrivals)
        mean = sum(arrivals) / len(arrivals)
        assert mean == pytest.approx(0.010, rel=0.15)


def run_counting(kernel):
    """Run until the queue drains; return the number of events executed."""
    executed = 0
    while kernel.step():
        executed += 1
    return executed


class TestOneEventPerTransfer:
    """A link is a clock, not a queue: a transfer returns its arrival
    instant at the call and schedules nothing; a topology transfer arms
    that arrival, its only event (docs/PERF.md "A link is a clock, not a
    queue")."""

    SPEC = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)

    def wired(self, kernel):
        topology = Topology(kernel, RngStreams(seed=1))
        topology.add_wired("a", "b", self.SPEC)
        return topology

    def test_a_link_transfer_schedules_nothing(self, kernel):
        assert Link(kernel, self.SPEC, rng()).transfer(125000) == 1.0
        assert kernel.pending_events == 0

    def test_an_uncontended_transfer_costs_exactly_one_event(self, kernel):
        done = Outcome(kernel)
        self.wired(kernel).transfer("a", "b", 125000, done)
        assert kernel.pending_events == 1  # the arrival, armed at the call
        assert run_counting(kernel) == 1
        assert (done.value, done.at) == (1.0, 1.0)

    def test_a_transfer_queued_on_a_shared_medium_costs_one_event(self, kernel):
        topology = self.wired(kernel)
        first, queued = Outcome(kernel), Outcome(kernel)
        topology.transfer("a", "b", 125000, first)
        topology.transfer("b", "a", 125000, queued)
        assert topology.graph["a"]["b"].medium.free_at == 2.0
        # one arrival each: no airtime timer, no grant wake-up
        assert run_counting(kernel) == 2
        assert (first.value, queued.value) == (1.0, 2.0)

    def test_the_arrival_takes_its_place_at_the_request(self, kernel):
        """The tie-break: at t=0 a 1 s-airtime, zero-latency transfer; at
        t=0.5 a callback B for t=1. The arrival's heap seq is the one it
        took at t=0, so it runs before B."""
        seen = []
        self.wired(kernel).transfer(
            "a", "b", 125000, lambda value, _exc: seen.append(("arrival", value)))
        kernel.schedule(0.5, kernel.schedule, 0.5, seen.append, "B")
        kernel.run()
        assert seen == [("arrival", 1.0), "B"]

    def test_counters_count_at_the_request(self, kernel):
        topology = self.wired(kernel)
        topology.transfer("a", "b", 100, Outcome(kernel))
        link = topology.graph["a"]["b"]
        assert (link.messages_sent, link.bytes_sent) == (1, 100)
        assert run_counting(kernel) == 1


class TestLatencySpike:
    """``extra_latency_s`` is read at the request: a spike applies to the
    transfers requested after it, not to one already under way."""

    SPEC = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)

    def test_a_spike_applies_to_transfers_requested_after_it(self, kernel):
        """The first transfer's airtime runs 0 → 1 s; the spike at 0.5 s
        comes while it is on the air and leaves its arrival alone. The
        second, requested at 0.5 s after the spike, queues behind it and
        arrives 0.25 s late."""
        link = Link(kernel, self.SPEC, rng())
        on_air = link.transfer(125000)
        after = []

        def spike():
            link.extra_latency_s = 0.25
            after.append(link.transfer(125000))

        kernel.schedule(0.5, spike)
        kernel.run()
        assert (on_air, after[0]) == (1.0, 2.25)
