"""Property-based tests for the network substrate.

``REPRO_FUZZ_N`` scales the example budget of the link reference test like
the other fuzz suites (default 300; CI's audit job runs 3000).
"""

import functools
import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Link, LinkSpec, Topology
from repro.net.wire import WireFormatError, decode, encode
from repro.sim import Kernel, Resource, RngStreams, lognormal_around

from ..outcomes import Outcome

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "300"))


@given(data=st.binary(min_size=0, max_size=200))
@settings(max_examples=200)
def test_decode_never_crashes_on_garbage(data):
    """Arbitrary bytes either decode (if they happen to be valid) or raise
    exactly WireFormatError — never any other exception."""
    try:
        decode(data)
    except WireFormatError:
        pass


@given(data=st.binary(min_size=1, max_size=100), cut=st.integers(0, 99))
@settings(max_examples=100)
def test_truncated_valid_messages_rejected_cleanly(data, cut):
    wire = encode(data)
    truncated = wire[: min(cut, len(wire) - 1)]
    try:
        value = decode(truncated)
    except WireFormatError:
        return
    # the only way truncation can 'succeed' is the degenerate empty prefix
    # case, which cannot equal the original payload
    assert value != data or truncated == wire


@given(
    n_devices=st.integers(2, 6),
    nbytes=st.integers(100, 200_000),
    latency_ms=st.floats(0.1, 10.0),
    bandwidth_mbps=st.floats(10.0, 500.0),
)
@settings(max_examples=50, deadline=None)
def test_star_transfer_time_matches_closed_form(n_devices, nbytes, latency_ms,
                                                bandwidth_mbps):
    """Uncontended star-topology transfers take exactly
    2 * (latency + bytes/bandwidth) — the two-hop relay through the AP."""
    kernel = Kernel()
    spec = LinkSpec(latency_s=latency_ms / 1e3, jitter_cv=0.0,
                    bandwidth_bps=bandwidth_mbps * 1e6)
    topo = Topology(kernel, RngStreams(seed=1))
    topo.add_wifi("wifi", spec)
    names = [f"d{i}" for i in range(n_devices)]
    for name in names:
        topo.attach(name, "wifi")
    done = Outcome(kernel)
    topo.transfer(names[0], names[-1], nbytes, done)
    kernel.run()
    expected = 2 * (latency_ms / 1e3 + nbytes * 8 / (bandwidth_mbps * 1e6))
    assert abs(done.value - expected) < 1e-9
    assert abs(topo.expected_delay(names[0], names[-1], nbytes) - expected) < 1e-9


@given(
    transfers=st.lists(st.integers(1_000, 100_000), min_size=1, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_shared_medium_serializes_total_airtime(transfers):
    """On a zero-latency shared medium, total completion time is exactly
    the sum of all hops' transmission times (perfect serialization)."""
    kernel = Kernel()
    spec = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=50e6)
    topo = Topology(kernel, RngStreams(seed=1))
    topo.add_wifi("wifi", spec)
    for name in ("a", "b", "c"):
        topo.attach(name, "wifi")
    arrivals = [Outcome(kernel) for _ in transfers]
    for n, arrival in zip(transfers, arrivals):
        topo.transfer("a", "b", n, arrival)
    kernel.run()
    total_airtime = sum(2 * n * 8 / 50e6 for n in transfers)
    assert max(a.value for a in arrivals) <= total_airtime + 1e-9
    # and it cannot beat the serialized bound either
    assert abs(max(a.value for a in arrivals) - total_airtime) < 1e-6


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_jittered_transfers_replay_identically(seed):
    """Same seed, same topology build order => identical arrival times."""

    def run():
        kernel = Kernel()
        topo = Topology(kernel, RngStreams(seed=seed))
        topo.add_wifi("wifi", LinkSpec(latency_s=0.002, jitter_cv=0.3))
        for name in ("a", "b"):
            topo.attach(name, "wifi")
        arrivals = [Outcome(kernel) for _ in range(5)]
        for arrival in arrivals:
            topo.transfer("a", "b", 10_000, arrival)
        kernel.run()
        return [a.value for a in arrivals]

    assert run() == run()


# -- the link against a reference --------------------------------------------
class ReferenceLink:
    """What :class:`~repro.net.Link` and the arrival a topology arms for it
    must do, written as the two-stage link: the medium is a one-slot
    :class:`~repro.sim.Resource` requested at the call. The grant draws the
    loss into the airtime and arms the airtime timer, in the call when the
    medium is free and in the wake-up a release schedules when it is
    queued. The airtime timer releases the medium, counts the message,
    draws the latency and arms the arrival timer, which calls ``then(*args,
    arrived_at, None)``. A test-side reference, not a second link."""

    def __init__(self, kernel, spec, rng, medium=None):
        self.kernel, self.spec, self.rng = kernel, spec, rng
        self.medium = medium if medium is not None else Resource(kernel, 1)
        self.extra_latency_s = 0.0
        self.messages_sent = self.bytes_sent = self.retransmits = 0

    def transfer(self, nbytes, then, *args):
        arrival = functools.partial(then, *args)
        request = self.medium.request()
        if request.pending:
            request.wait(self._granted, arrival, nbytes)
        else:
            self._granted(arrival, nbytes, request.value, None)

    def _granted(self, arrival, nbytes, grant, _exc):
        airtime = self.spec.transmission_time(nbytes)
        if self.spec.loss_prob > 0 and self.rng.random() < self.spec.loss_prob:
            airtime += self.spec.retransmit_penalty_s
            self.retransmits += 1
        self.kernel.schedule(airtime, self._sent, arrival, nbytes, grant)

    def _sent(self, arrival, nbytes, grant):
        self.medium.release(grant)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        latency = lognormal_around(self.rng, self.spec.latency_s, self.spec.jitter_cv)
        delay = latency + self.extra_latency_s
        self.kernel.schedule(delay, arrival, self.kernel.now + delay, None)


def arm(link, nbytes, then, *args):
    """A transfer on *link* whose arrival calls ``then(*args, arrived_at,
    None)``: :class:`~repro.net.Link` returns the instant and the caller
    arms it, as :meth:`~repro.net.Topology.transfer` does."""
    if isinstance(link, ReferenceLink):
        return link.transfer(nbytes, then, *args)
    at = link.transfer(nbytes)
    link.kernel.schedule_at(at, then, *args, at, None)


def play_links(link_class, links, transfers, seed):
    """Build *links* (``(spec, medium group)`` each: links of one group
    share a medium) with *link_class* and run *transfers* (``(at, then,
    link, nbytes)`` each: at time *at* an event schedules the transfer
    *then* seconds later, so a request can come before or after a release
    due at the same instant). Return every arrival time in call order, each
    link's counters and the final clock."""
    kernel, streams = Kernel(), RngStreams(seed=seed)
    built, media = [], {}
    for index, (spec, group) in enumerate(links):
        link = link_class(kernel, spec, streams.stream(f"link/{index}"),
                          medium=media.get(group))
        media.setdefault(group, link.medium)
        built.append(link)
    arrivals = []

    def arrived(slot, at, _exc):
        arrivals[slot] = at

    def start(index, nbytes):
        arrivals.append(None)
        arm(built[index % len(built)], nbytes, arrived, len(arrivals) - 1)

    for at, then, index, nbytes in transfers:
        kernel.schedule(at, kernel.schedule, then, start, index, nbytes)
    kernel.run()
    return (arrivals,
            [(link.messages_sent, link.bytes_sent, link.retransmits) for link in built],
            kernel.now)


#: airtimes, latencies and penalties on one grid of exact binary fractions
#: (32 bit/s: a byte is 0.25 s of airtime), so that requests, releases and
#: arrivals fall on the same instants; 0.003 s with jitter draws real floats
_LINK_SPECS = st.builds(
    LinkSpec,
    latency_s=st.sampled_from([0.0, 0.25, 0.003]),
    jitter_cv=st.sampled_from([0.0, 0.25]),
    bandwidth_bps=st.just(32.0),
    loss_prob=st.sampled_from([0.0, 0.3, 0.9]),
    retransmit_penalty_s=st.just(0.5),
)
_GRID = st.integers(0, 8).map(lambda n: n * 0.25)
_LINKS = st.lists(st.tuples(_LINK_SPECS, st.integers(0, 3)), min_size=1, max_size=4)
_TRANSFERS = st.lists(
    st.tuples(_GRID, _GRID, st.integers(0, 3), st.integers(0, 4)),
    min_size=1, max_size=12)
_LOSSY = LinkSpec(latency_s=0.003, jitter_cv=0.25, bandwidth_bps=32.0,
                  loss_prob=0.3, retransmit_penalty_s=0.5)
_EXACT = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=32.0,
                  loss_prob=0.0, retransmit_penalty_s=0.5)


@given(links=_LINKS, transfers=_TRANSFERS, seed=st.integers(0, 2**16))
# two transfers queued on one lossy, jittered link: each link's stream reads
# loss, latency, loss, latency — drawing the loss at the call, and the
# latency when the airtime ends, would read loss, loss, latency, latency
@example([(_LOSSY, 0)], [(0.0, 0.0, 0, 4), (0.0, 0.0, 0, 4)], 7)
# a shared zero-latency medium: a request made at the instant the airtime
# before it ends, once ahead of that release and once behind it
@example([(_EXACT, 0), (_EXACT, 0)],
         [(0.0, 1.0, 1, 2), (0.0, 0.0, 0, 4), (1.0, 0.0, 1, 2)], 0)
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_one_event_link_matches_the_two_stage_reference(links, transfers, seed):
    """Same arrival time for every transfer (float ``==``), same per-link
    ``messages_sent`` / ``bytes_sent`` / ``retransmits`` and the same final
    clock: shared and private media, lossy and jittered links, zero
    latency and same-instant requests included."""
    assert (play_links(Link, links, transfers, seed)
            == play_links(ReferenceLink, links, transfers, seed))
