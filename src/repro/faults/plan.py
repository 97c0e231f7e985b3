"""The declarative fault timeline.

A :class:`FaultPlan` is a list of primitive :class:`FaultEvent` entries —
*when*, *what kind*, *which target* — plus fluent builders for the common
compound patterns (a crash that heals itself, a flapping link). Plans are
pure data: they know nothing about the kernel or the home, which keeps them
serializable, diffable, and reusable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import FaultError

#: Primitive fault kinds understood by the injector.
DEVICE_CRASH = "device_crash"
DEVICE_RESTART = "device_restart"
LINK_PARTITION = "link_partition"
LINK_HEAL = "link_heal"
SERVICE_CRASH = "service_crash"
SERVICE_RESTART = "service_restart"
LATENCY_SPIKE = "latency_spike"

KINDS = (
    DEVICE_CRASH, DEVICE_RESTART, LINK_PARTITION, LINK_HEAL,
    SERVICE_CRASH, SERVICE_RESTART, LATENCY_SPIKE,
)

#: Kinds whose target is ``"service@device"`` rather than a device name.
_SERVICE_KINDS = (SERVICE_CRASH, SERVICE_RESTART)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One primitive fault: *kind* hits *target* at simulated time *at*.

    Targets are device names, except for service faults where the target is
    ``"service@device"``. ``params`` carries kind-specific knobs (e.g.
    ``extra_latency_s`` for :data:`LATENCY_SPIKE`).
    """

    at: float
    kind: str
    target: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultError(f"fault time must be >= 0, got {self.at}")
        if self.kind not in KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}; known: {KINDS}")
        if not self.target:
            raise FaultError(f"{self.kind} event needs a target")
        if self.kind in _SERVICE_KINDS and "@" not in self.target:
            raise FaultError(
                f"{self.kind} target must be 'service@device', got {self.target!r}"
            )
        if self.kind == LATENCY_SPIKE:
            extra = self.params.get("extra_latency_s")
            if not isinstance(extra, (int, float)) or extra == 0:
                raise FaultError("latency_spike needs a nonzero extra_latency_s")
            if extra < 0 and not self.params.get("_restore"):
                raise FaultError("latency_spike needs extra_latency_s > 0")

    def as_dict(self) -> dict[str, Any]:
        return {
            "at": self.at, "kind": self.kind, "target": self.target,
            "params": dict(self.params),
        }


class FaultPlan:
    """A timeline of fault events with fluent builders.

    Builders return ``self`` so plans read like a schedule::

        plan = (FaultPlan()
                .device_crash(4.0, "desktop", down_for=8.0)
                .partition(6.0, "tv", heal_after=2.0)
                .latency_spike(10.0, "phone", extra_latency_s=0.2,
                               duration_s=3.0))
    """

    def __init__(self, events: list[FaultEvent] | None = None) -> None:
        self._events: list[FaultEvent] = list(events or [])

    # -- fluent builders -------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        return self

    def device_crash(self, at: float, device: str,
                     down_for: float | None = None) -> "FaultPlan":
        """Power-cycle fault: *device* dies at *at*; with ``down_for`` it
        restarts that many seconds later (else it stays dead)."""
        self.add(FaultEvent(at, DEVICE_CRASH, device))
        if down_for is not None:
            self._check_duration(down_for, "down_for")
            self.add(FaultEvent(at + down_for, DEVICE_RESTART, device))
        return self

    def partition(self, at: float, device: str,
                  heal_after: float | None = None) -> "FaultPlan":
        """*device* falls off the network at *at* (it stays powered); with
        ``heal_after`` connectivity returns that many seconds later."""
        self.add(FaultEvent(at, LINK_PARTITION, device))
        if heal_after is not None:
            self._check_duration(heal_after, "heal_after")
            self.add(FaultEvent(at + heal_after, LINK_HEAL, device))
        return self

    def heal(self, at: float, device: str) -> "FaultPlan":
        return self.add(FaultEvent(at, LINK_HEAL, device))

    def flap(self, at: float, device: str, *, count: int,
             down_s: float, up_s: float) -> "FaultPlan":
        """A flapping link: *count* partition/heal cycles starting at *at*,
        each ``down_s`` seconds off followed by ``up_s`` seconds on."""
        if count < 1:
            raise FaultError("flap needs count >= 1")
        self._check_duration(down_s, "down_s")
        self._check_duration(up_s, "up_s")
        t = at
        for _ in range(count):
            self.partition(t, device, heal_after=down_s)
            t += down_s + up_s
        return self

    def service_crash(self, at: float, service: str, device: str,
                      down_for: float | None = None) -> "FaultPlan":
        """The service process (one replica host) dies; the device survives."""
        target = f"{service}@{device}"
        self.add(FaultEvent(at, SERVICE_CRASH, target))
        if down_for is not None:
            self._check_duration(down_for, "down_for")
            self.add(FaultEvent(at + down_for, SERVICE_RESTART, target))
        return self

    def latency_spike(self, at: float, device: str, *, extra_latency_s: float,
                      duration_s: float | None = None) -> "FaultPlan":
        """Add ``extra_latency_s`` to every link touching *device*; with
        ``duration_s`` the spike subsides after that long."""
        self.add(FaultEvent(
            at, LATENCY_SPIKE, device,
            {"extra_latency_s": float(extra_latency_s)},
        ))
        if duration_s is not None:
            self._check_duration(duration_s, "duration_s")
            self.add(FaultEvent(
                at + duration_s, LATENCY_SPIKE, device,
                {"extra_latency_s": -float(extra_latency_s), "_restore": True},
            ))
        return self

    @staticmethod
    def _check_duration(value: float, name: str) -> None:
        if value <= 0:
            raise FaultError(f"{name} must be positive, got {value}")

    # -- access ----------------------------------------------------------------
    def events(self) -> list[FaultEvent]:
        """The timeline in firing order (time, then insertion order)."""
        indexed = sorted(enumerate(self._events), key=lambda p: (p[1].at, p[0]))
        return [event for _, event in indexed]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events())

    def targets(self) -> list[str]:
        """Every distinct target in the plan, sorted."""
        return sorted({e.target for e in self._events})

    # -- (de)serialization ------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {"events": [e.as_dict() for e in self.events()]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        events = [
            FaultEvent(
                at=entry["at"], kind=entry["kind"], target=entry["target"],
                params=dict(entry.get("params", {})),
            )
            for entry in data.get("events", [])
        ]
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan {len(self._events)} events>"
