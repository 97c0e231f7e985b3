"""Link models: how long bytes take to cross the network.

A :class:`LinkSpec` holds the physical parameters; a :class:`Link` is a
kernel-attached transmission channel with a serializing :class:`Medium`
(transmissions queue behind each other, which is what makes a busy Wi-Fi
radio a shared bottleneck). Several links may *share* one medium — that is
how the home Wi-Fi access point is modeled: every device's traffic contends
for the same airtime.

Loss is modeled as TCP-style retransmission delay rather than message drop,
because the paper's ZeroMQ transport runs over TCP: a lost packet delays the
message, it does not destroy it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sim.kernel import Kernel
from ..sim.rng import lognormal_params


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Physical link parameters.

    Attributes:
        latency_s: one-way propagation + protocol latency in seconds.
        jitter_cv: coefficient of variation of the latency (0 = none).
        bandwidth_bps: usable bandwidth in bits per second.
        loss_prob: probability a transmission needs one TCP retransmit.
        retransmit_penalty_s: extra delay charged per retransmit.
    """

    latency_s: float = 0.002
    jitter_cv: float = 0.2
    bandwidth_bps: float = 100e6
    loss_prob: float = 0.0
    retransmit_penalty_s: float = 0.05

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.bandwidth_bps <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")

    def transmission_time(self, nbytes: int) -> float:
        """Airtime needed to push *nbytes* through the link (no queueing)."""
        return nbytes * 8.0 / self.bandwidth_bps


#: Canonical home-network profiles, roughly matching the paper's testbed
#: (2018-era flagship phone, desktop and TV on the same 802.11ac network).
WIFI_HOME = LinkSpec(latency_s=0.0012, jitter_cv=0.25, bandwidth_bps=120e6, loss_prob=0.005)
LOOPBACK = LinkSpec(latency_s=0.00005, jitter_cv=0.05, bandwidth_bps=20e9)

#: The uplink from a home's access point to a metro-area edge cloud: a few
#: milliseconds to a nearby point of presence over a fibre last mile. Heavy
#: services in the shared cloud tier are reachable behind this link; every
#: byte crossing it is metered as egress (``Topology.wan_egress_bytes``).
WAN_METRO = LinkSpec(latency_s=0.005, jitter_cv=0.15, bandwidth_bps=300e6, loss_prob=0.001)

#: A conservative regional-cloud profile for ablations: the latency of a
#: real WAN round trip to a regional datacenter, where shipping frames out
#: of the home rarely pays off.
WAN_REGIONAL = LinkSpec(latency_s=0.02, jitter_cv=0.25, bandwidth_bps=100e6, loss_prob=0.003)


class Medium:
    """The airtime of one radio (or wire): a FIFO, one-slot medium whose
    transmission times are known when they are requested, so it needs no
    queue, only a clock — the instant its last requested transmission ends.
    A transfer starts at ``max(now, free_at)`` (Lindley's recursion). Links
    that share one instance contend for the same airtime (Wi-Fi)."""

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at = 0.0


class Link:
    """A transmission channel bound to the kernel.

    ``transfer(nbytes)`` returns the instant the last byte arrives at the
    far end. Transmissions serialize on the link's
    :class:`Medium`; propagation of one message overlaps the next
    transmission. The counters — and so ``Topology.wan_egress_bytes`` —
    count a transfer at its request, not at its arrival.
    """

    def __init__(
        self,
        kernel: Kernel,
        spec: LinkSpec,
        rng: np.random.Generator | Callable[[], np.random.Generator],
        name: str = "link",
        medium: Medium | None = None,
    ) -> None:
        self.kernel = kernel
        self.spec = spec
        #: the loss and latency stream, or the call that builds it at the
        #: first transfer (most links of a fleet never carry a byte)
        self._rng = rng
        self.name = name
        #: the latency lognormal's (mu, sigma), fixed by the frozen spec
        self._latency = lognormal_params(spec.latency_s, spec.jitter_cv)
        #: The airtime clock. Pass a shared Medium to model a shared medium
        #: (Wi-Fi); default is a private point-to-point medium.
        self.medium = medium if medium is not None else Medium()
        #: Additional per-message latency, mutable at runtime — the knob the
        #: fault injector turns for transient latency-spike faults. A
        #: transfer reads it at its request.
        self.extra_latency_s = 0.0
        # counters
        self.messages_sent = 0
        self.bytes_sent = 0
        self.retransmits = 0

    def transfer(self, nbytes: int) -> float:
        """Start transferring *nbytes*; returns the instant the last byte
        arrives at the far end.

        Everything is decided at the call: the transmission starts when the
        medium is free, its loss is drawn into the airtime, then its latency
        is drawn. So a link's own stream reads loss, latency per transfer,
        in the order the transfers were requested — the order in which a
        FIFO medium sends them. The link schedules nothing: the caller
        (:meth:`~repro.net.topology.Topology.transfer`) arms the arrival.
        Every byte on a link goes through this method, which is what counts
        it.
        """
        medium = self.medium
        if not isinstance(self._rng, np.random.Generator):
            self._rng = self._rng()
        start = max(self.kernel.now, medium.free_at)
        medium.free_at = sent = start + self._airtime(nbytes)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        latency = (
            self.spec.latency_s if self._latency is None
            else self._rng.lognormal(*self._latency)
        )
        return sent + (latency + self.extra_latency_s)

    def _airtime(self, nbytes: int) -> float:
        tx_time = self.spec.transmission_time(nbytes)
        if self.spec.loss_prob > 0 and self._rng.random() < self.spec.loss_prob:
            tx_time += self.spec.retransmit_penalty_s
            self.retransmits += 1
        return tx_time

    def expected_delay(self, nbytes: int) -> float:
        """Uncontended expected transfer time (for planning/placement)."""
        return (self.spec.transmission_time(nbytes) + self.spec.latency_s
                + self.extra_latency_s)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.messages_sent} msgs {self.bytes_sent}B>"
