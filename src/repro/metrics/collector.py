"""Cross-component metrics collection.

One :class:`MetricsCollector` per pipeline gathers per-stage latencies
(Fig. 6's bars), end-to-end frame completions (Table 2's FPS), and free-form
counters. Components record through the module context; benchmarks read the
summaries.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from .stats import RateMeter, Summary, summarize


class MetricsCollector:
    """Per-pipeline timing and counting sink."""

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self._stages: dict[str, list[float]] = defaultdict(list)
        self._counters: dict[str, int] = defaultdict(int)
        self.completions = RateMeter()
        self._frame_started: dict[int, float] = {}
        self._frame_latencies: list[float] = []
        self._latency_events: list[tuple[float, float]] = []
        #: The home's :class:`~repro.audit.auditor.InvariantAuditor`, or
        #: ``None`` while auditing is off (set by ``watch_metrics``).
        self.auditor: Any = None

    # -- stage latencies ----------------------------------------------------
    def record_stage(self, stage: str, seconds: float) -> None:
        """One sample of a named pipeline stage's latency."""
        self._stages[stage].append(seconds)

    def stage_names(self) -> list[str]:
        return sorted(self._stages)

    def stage_samples(self, stage: str) -> list[float]:
        return list(self._stages[stage])

    def stage_summary(self, stage: str) -> Summary:
        """Summary for one stage; :meth:`Summary.empty` when no samples
        were recorded (e.g. every frame died under a chaos plan)."""
        samples = self._stages.get(stage)
        if not samples:
            return Summary.empty()
        return summarize(samples)

    def recent_stage_mean(self, stage: str, window: int = 20) -> float | None:
        """Mean of the last *window* samples of one stage, in seconds, or
        ``None`` when the stage has no samples. The online placement
        optimizer calibrates its cost model with this — recent samples
        track the running system where the all-time mean still remembers a
        cold start or a load spike long past."""
        samples = self._stages.get(stage)
        if not samples:
            return None
        tail = samples[-window:]
        return sum(tail) / len(tail)

    def stage_means_ms(self) -> dict[str, float]:
        """Mean latency per stage in milliseconds (Fig. 6's quantity)."""
        return {
            stage: summarize(samples).mean * 1e3
            for stage, samples in self._stages.items()
            if samples
        }

    # -- end-to-end frames ----------------------------------------------------
    def frame_entered(self, frame_id: int, now: float) -> None:
        """A frame was admitted into the pipeline at the source."""
        self._frame_started[frame_id] = now
        self._counters["frames_entered"] += 1
        if self.auditor is not None:
            self.auditor.on_frame_entered(self, frame_id)

    def frame_completed(self, frame_id: int, now: float) -> None:
        """The final module finished the frame; updates FPS and latency."""
        self.completions.tick(now)
        started = self._frame_started.pop(frame_id, None)
        if started is not None:
            self._frame_latencies.append(now - started)
            self._latency_events.append((now, now - started))
        self._counters["frames_completed"] += 1
        if self.auditor is not None:
            self.auditor.on_frame_completed(self, frame_id)

    def frame_dropped(self, frame_id: int, now: float) -> None:
        """A frame left the pipeline without completing (a source-side drop,
        or a settlement — :mod:`repro.runtime.settlement`). Prunes the start
        entry and counts it under ``frames_dropped``. Safe for frames that
        were never admitted (the source's pre-admission drops)."""
        self._frame_started.pop(frame_id, None)
        self._counters["frames_dropped"] += 1
        if self.auditor is not None:
            self.auditor.on_frame_dropped(self, frame_id)

    @property
    def frames_in_flight(self) -> int:
        """Frames admitted but neither completed nor dropped yet."""
        return len(self._frame_started)

    def frame_in_flight(self, frame_id: int) -> bool:
        """Whether *frame_id* is admitted and not yet completed or dropped
        — the guard :mod:`repro.runtime.settlement` settles frames under."""
        return frame_id in self._frame_started

    def throughput_fps(self, end_time: float, warmup_s: float = 0.0) -> float:
        """Completed frames per second over the measurement window."""
        return self.completions.rate(end_time, warmup_s)

    def total_latency_summary(self) -> Summary:
        """Source-to-completion latency ('Total Duration' in Fig. 6);
        :meth:`Summary.empty` when no frame ever completed."""
        if not self._frame_latencies:
            return Summary.empty()
        return summarize(self._frame_latencies)

    @property
    def total_latencies(self) -> list[float]:
        return list(self._frame_latencies)

    def latency_events(self) -> list[tuple[float, float]]:
        """``(completion_time, latency_s)`` per completed frame, in
        completion order. The SLO machinery windows over this to compute
        delivered FPS and tail latency; treat the returned list as
        read-only (it is the live record, not a copy)."""
        return self._latency_events

    def delivered_fps(self, now: float, window_s: float) -> float:
        """Completed frames per second over the trailing *window_s*."""
        if window_s <= 0:
            return 0.0
        cutoff = now - window_s
        count = 0
        for at, _ in reversed(self._latency_events):
            if at <= cutoff:
                break
            count += 1
        return count / window_s

    # -- counters ------------------------------------------------------------
    def increment(self, counter: str, amount: int = 1) -> None:
        self._counters[counter] += amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        return dict(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsCollector {self.name}: {self.counter('frames_completed')}"
            f" frames, stages {self.stage_names()}>"
        )
