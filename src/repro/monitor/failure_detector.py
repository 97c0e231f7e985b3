"""Heartbeat-based failure detection (§7: "monitoring of the pipelines").

Every device runs a tiny :class:`HeartbeatResponder` (a native RPC
endpoint). The :class:`FailureDetector` — typically on the home's most
reliable device — pings each watched device on a fixed period; after
``miss_threshold`` consecutive misses the device is declared **dead**
(evacuation moves modules off :meth:`FailureDetector.dead_devices`, and
``VideoPipe.live_devices`` leaves a dead device out until it answers),
and when heartbeats come back the device is declared recovered and an MTTR
sample is recorded (first miss → recovery, the detector's honest view of
the outage). Both transitions are ``down`` / ``up`` actions in the log.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..actions import Action
from ..net.address import Address
from ..net.rpc import RpcClient, RpcServer
from ..net.transport import Transport
from ..sim.kernel import Kernel, Ticker

#: Well-known port for the heartbeat endpoint on every device.
HEARTBEAT_PORT = 190


class HeartbeatResponder:
    """The per-device heartbeat endpoint: answers pings while the device is
    up (a down device simply never sees the request — the transport refuses
    delivery)."""

    def __init__(self, kernel: Kernel, transport: Transport, device: str) -> None:
        self.kernel = kernel
        self.device = device
        self.address = Address(device, HEARTBEAT_PORT)
        self.pings_answered = 0
        self._rpc = RpcServer(kernel, transport, self.address, self._on_ping)

    def _on_ping(self, payload: object, message: object) -> dict:
        self.pings_answered += 1
        return {"device": self.device, "t": self.kernel.now}


@dataclass(slots=True)
class _WatchState:
    misses: int = 0
    dead: bool = False
    first_miss_at: float | None = None


class FailureDetector:
    """Timeout-based failure detector over heartbeat probes."""

    def __init__(
        self,
        kernel: Kernel,
        transport: Transport,
        home_device: str,
        period_s: float = 0.5,
        miss_threshold: int = 3,
        actions: list[Action] | None = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.kernel = kernel
        self.home_device = home_device
        self.period_s = period_s
        self.miss_threshold = miss_threshold
        # probes must not themselves retry or trip breakers: the detector IS
        # the component that interprets failures. A probe times out after
        # one period, so a hung probe can't overlap more than one round.
        self._client = RpcClient(
            kernel, transport, home_device,
            default_timeout_s=period_s, retry=None, breaker=None,
        )
        self._watched: dict[str, _WatchState] = {}
        self._ticker: Ticker | None = None
        #: Where each transition (``down``/``up``) is recorded.
        self.actions = [] if actions is None else actions
        #: Outage durations (first missed heartbeat → recovery), seconds.
        self.mttr_samples: list[float] = []
        # statistics
        self.probes_sent = 0
        self.probes_failed = 0
        self.detections = 0
        self.recoveries = 0

    # -- registration -----------------------------------------------------------
    def watch(self, device: str) -> None:
        """Start monitoring *device* (idempotent)."""
        if device != self.home_device:
            self._watched.setdefault(device, _WatchState())

    def watched(self) -> list[str]:
        return sorted(self._watched)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        """Probe every watched device now, then once per period."""
        if self._ticker is None:
            self._ticker = self.kernel.every(self.period_s, self._tick, first=0.0)

    def _tick(self) -> None:
        for device in sorted(self._watched):
            self._probe(device)

    # -- probing -----------------------------------------------------------------
    def _probe(self, device: str) -> None:
        self.probes_sent += 1
        result = self._client.call(
            Address(device, HEARTBEAT_PORT), {"t": self.kernel.now}
        )
        if result.pending:
            result.wait(lambda _v, exc: self._on_probe(device, exc))
        else:  # failed in the call (no route to the device): a miss now
            self._on_probe(device, result.exception)

    def _on_probe(self, device: str, exc: BaseException | None) -> None:
        state = self._watched.get(device)
        if state is None:
            return
        if exc is None:
            if state.dead:
                state.dead = False
                self.recoveries += 1
                mttr = (self.kernel.now - state.first_miss_at
                        if state.first_miss_at is not None else 0.0)
                self.mttr_samples.append(mttr)
                self.actions.append(Action(
                    self.kernel.now, "detector", "up", device,
                    "heartbeat answered", {"mttr_s": mttr},
                ))
            state.misses = 0
            state.first_miss_at = None
            return
        self.probes_failed += 1
        if state.misses == 0:
            state.first_miss_at = self.kernel.now
        state.misses += 1
        if not state.dead and state.misses >= self.miss_threshold:
            state.dead = True
            self.detections += 1
            self.actions.append(Action(
                self.kernel.now, "detector", "down", device,
                f"{state.misses} heartbeats missed in a row",
            ))

    # -- queries -----------------------------------------------------------------
    def is_dead(self, device: str) -> bool:
        state = self._watched.get(device)
        return state.dead if state is not None else False

    def dead_devices(self) -> list[str]:
        return sorted(d for d, s in self._watched.items() if s.dead)

    def mttr_mean(self) -> float:
        if not self.mttr_samples:
            return 0.0
        return sum(self.mttr_samples) / len(self.mttr_samples)

    def mttr_max(self) -> float:
        return max(self.mttr_samples, default=0.0)

