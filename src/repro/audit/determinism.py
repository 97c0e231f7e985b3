"""The determinism harness: run a scenario twice, diff the event streams.

The whole reproduction rests on the kernel being deterministic under a
seed: Table 2 numbers, Fig. 6 bars and every regression test assume that
re-running a scenario reproduces it exactly. Nondeterminism sneaks in
through Python identity — ``id()``-keyed dicts, set iteration, hash
randomization — and is invisible to output-level assertions until the
iteration order happens to differ. This harness catches it structurally:
an :class:`EventTap` records every kernel event as it is scheduled and
executed, two runs under the same seed are diffed record-by-record, and
the first divergence is reported with both sides' labels.

A scenario is any callable ``scenario(seed) -> (home, run_fn)`` where
``run_fn()`` drives the run and returns a JSON-able fingerprint (metrics
counters, latencies, trace digests...). ``tools/scenarios.py`` makes one of
every ``examples/`` script from the script's own ``build``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Callable

#: One tap record: (phase, event_time, priority, seq, label) where phase is
#: "S" (scheduled, stamped with the schedule-time clock) or "X" (executed).
TapRecord = tuple

#: A scenario factory: seed -> (home, run_fn). ``home`` exposes ``.kernel``;
#: ``run_fn()`` returns the scenario's fingerprint.
Scenario = Callable[[int], tuple]


class EventTap:
    """A passive kernel observer recording the full event stream.

    Labels are derived from the callback's qualified name plus the owning
    object's ``name`` attribute when present (e.g. a process or signal
    name) — enough to tell *which* component diverged without holding
    references to the objects themselves.
    """

    def __init__(self, limit: int = 2_000_000) -> None:
        self.limit = limit
        self.records: list[TapRecord] = []
        self.overflow = 0

    @staticmethod
    def _label(event: Any) -> str:
        callback = event.callback
        qualname = getattr(callback, "__qualname__", type(callback).__name__)
        owner = getattr(callback, "__self__", None)
        owner_name = getattr(owner, "name", None)
        if isinstance(owner_name, str):
            return f"{qualname}[{owner_name}]"
        return qualname

    def _record(self, phase: str, now: float, event: Any) -> None:
        if len(self.records) >= self.limit:
            self.overflow += 1
            return
        self.records.append(
            (phase, event.time, event.priority, event.seq, self._label(event))
        )

    def on_schedule(self, now: float, event: Any) -> None:
        self._record("S", now, event)

    def on_execute(self, now: float, event: Any) -> None:
        self._record("X", now, event)


@dataclass(slots=True)
class Divergence:
    """The first point where two same-seed runs disagree."""

    index: int
    first: TapRecord | None
    second: TapRecord | None

    def describe(self) -> str:
        def fmt(record: TapRecord | None) -> str:
            if record is None:
                return "<stream ended>"
            phase, time, priority, seq, label = record
            kind = "scheduled" if phase == "S" else "executed"
            return f"{kind} t={time:.9f}s prio={priority} seq={seq} {label}"

        return (
            f"event streams diverge at record {self.index}:\n"
            f"  run 1: {fmt(self.first)}\n"
            f"  run 2: {fmt(self.second)}"
        )


@dataclass(slots=True)
class RunRecord:
    """One recorded run: its event stream and the scenario fingerprint."""

    events: list[TapRecord]
    fingerprint: Any
    overflow: int = 0


@dataclass(slots=True)
class DeterminismReport:
    """The verdict on a scenario, plus enough detail to act on a failure."""

    scenario: str
    seed: int
    ok: bool
    event_count: int
    #: :func:`stream_digest` of the first run's event stream
    stream_digest: str = ""
    divergence: Divergence | None = None
    fingerprints_match: bool = True
    fingerprints: tuple = field(default_factory=tuple)

    def describe(self) -> str:
        if self.ok:
            return (
                f"{self.scenario} (seed {self.seed}): deterministic over"
                f" {self.event_count} kernel events"
            )
        lines = [f"{self.scenario} (seed {self.seed}): NOT deterministic"]
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        if not self.fingerprints_match:
            lines.append(
                "fingerprints differ:\n"
                f"  run 1: {self.fingerprints[0]!r}\n"
                f"  run 2: {self.fingerprints[1]!r}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-able form for CI artifacts."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "event_count": self.event_count,
            "stream_digest": self.stream_digest,
            "fingerprints_match": self.fingerprints_match,
            "divergence": (
                None if self.divergence is None else self.divergence.describe()
            ),
        }


def record_scenario(scenario: Scenario, seed: int) -> RunRecord:
    """Run *scenario* once under *seed* with an event tap attached."""
    home, run_fn = scenario(seed)
    tap = EventTap()
    home.kernel.add_observer(tap)
    try:
        fingerprint = run_fn()
    finally:
        home.kernel.remove_observer(tap)
    return RunRecord(events=tap.records, fingerprint=fingerprint,
                     overflow=tap.overflow)


def first_divergence(
    first: list[TapRecord], second: list[TapRecord]
) -> Divergence | None:
    """The first index where two event streams differ, or ``None``."""
    for index, (a, b) in enumerate(zip(first, second)):
        if a != b:
            return Divergence(index=index, first=a, second=b)
    if len(first) != len(second):
        shorter = min(len(first), len(second))
        return Divergence(
            index=shorter,
            first=first[shorter] if len(first) > shorter else None,
            second=second[shorter] if len(second) > shorter else None,
        )
    return None


_DIGEST_RECORD = struct.Struct("<dqq")


def stream_digest(records: list[TapRecord]) -> str:
    """SHA-256 of an event stream, comparable across commits.

    Hashes each record's phase byte followed by ``(time, priority, seq)``
    packed little-endian. Labels are left out: they name callbacks, and a
    refactor may rename a callback without moving a single event.
    """
    sha = hashlib.sha256()
    pack = _DIGEST_RECORD.pack
    for phase, time, priority, seq, _label in records:
        sha.update(phase.encode("ascii") + pack(time, priority, seq))
    return sha.hexdigest()


def check_determinism(
    scenario: Scenario, seed: int = 7, name: str | None = None
) -> DeterminismReport:
    """Run *scenario* twice under *seed*; diff event streams and
    fingerprints; report the first divergence if any."""
    scenario_name = name or getattr(scenario, "__name__", "scenario")
    run1 = record_scenario(scenario, seed)
    run2 = record_scenario(scenario, seed)
    divergence = first_divergence(run1.events, run2.events)
    fingerprints_match = run1.fingerprint == run2.fingerprint
    ok = divergence is None and fingerprints_match
    return DeterminismReport(
        scenario=scenario_name,
        seed=seed,
        ok=ok,
        event_count=len(run1.events),
        stream_digest=stream_digest(run1.events),
        divergence=divergence,
        fingerprints_match=fingerprints_match,
        fingerprints=(run1.fingerprint, run2.fingerprint),
    )
