"""The monitoring component (§7 future work, implemented).

A :class:`Monitor` reads one snapshot function on a fixed period — the
home's :meth:`~repro.core.videopipe.VideoPipe.snapshot` — and keeps every
numeric leaf of the nested dict it returns as a time series named by its
path: ``{"device": {"phone": {"cpu_utilization": 0.4}}}`` is metric
``cpu_utilization`` of probe ``device/phone``. It evaluates alarm rules
against fresh samples and answers rate queries (e.g. live pipeline FPS from
the frames_completed counter).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..sim.kernel import Kernel, Ticker


@dataclass(frozen=True, slots=True)
class Sample:
    """One reading: (time, probe path, metric, value)."""

    at: float
    probe: str
    metric: str
    value: float


@dataclass(frozen=True, slots=True)
class AlarmRule:
    """Fire when ``metric`` of ``probe`` satisfies ``predicate`` for
    ``for_samples`` consecutive samples."""

    name: str
    probe: str
    metric: str
    predicate: Callable[[float], bool]
    for_samples: int = 1

    def __post_init__(self) -> None:
        if self.for_samples < 1:
            raise ValueError("for_samples must be >= 1")


@dataclass(frozen=True, slots=True)
class Alarm:
    """One fired alarm occurrence."""

    at: float
    rule: str
    probe: str
    metric: str
    value: float


def _leaves(tree: dict, path: str = "") -> Iterator[tuple[str, str, float]]:
    """Every numeric leaf of *tree* as ``(probe path, metric, value)``,
    depth first in dict order; strings, lists and ``None`` are skipped."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}/{key}" if path else str(key))
        elif isinstance(value, (int, float)):
            yield path, str(key), float(value)


class Monitor:
    """Periodic sampling + time series + alarms for the whole home."""

    def __init__(self, kernel: Kernel, read: Callable[[], dict[str, Any]],
                 period_s: float = 0.5, keep_samples: int = 100_000) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.kernel = kernel
        self.read = read
        self.period_s = period_s
        self.keep_samples = keep_samples
        self._rules: list[AlarmRule] = []
        self._streaks: dict[tuple[str, str], int] = defaultdict(int)
        self.samples: list[Sample] = []
        self.alarms: list[Alarm] = []
        self._ticker: Ticker | None = None

    # -- registration -----------------------------------------------------------
    def add_rule(self, rule: AlarmRule) -> None:
        self._rules.append(rule)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        if self._ticker is None:
            self._ticker = self.kernel.every(self.period_s, self.sample_once)

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    # -- sampling -------------------------------------------------------------------
    def sample_once(self) -> list[Sample]:
        """Read the snapshot now; returns the fresh samples."""
        now = self.kernel.now
        fresh = [Sample(now, probe, metric, value)
                 for probe, metric, value in _leaves(self.read())]
        for sample in fresh:
            self._check_rules(sample)
        self.samples.extend(fresh)
        if len(self.samples) > self.keep_samples:
            del self.samples[: len(self.samples) - self.keep_samples]
        return fresh

    def _check_rules(self, sample: Sample) -> None:
        for rule in self._rules:
            if rule.probe != sample.probe or rule.metric != sample.metric:
                continue
            key = (rule.name, sample.probe)
            if rule.predicate(sample.value):
                self._streaks[key] += 1
                if self._streaks[key] == rule.for_samples:
                    self.alarms.append(
                        Alarm(sample.at, rule.name, sample.probe,
                              sample.metric, sample.value)
                    )
            else:
                self._streaks[key] = 0

    # -- queries --------------------------------------------------------------------
    def series(self, probe: str, metric: str) -> list[tuple[float, float]]:
        """The (time, value) series of one metric."""
        return [
            (s.at, s.value)
            for s in self.samples
            if s.probe == probe and s.metric == metric
        ]

    def latest(self, probe: str, metric: str) -> float | None:
        for sample in reversed(self.samples):
            if sample.probe == probe and sample.metric == metric:
                return sample.value
        return None

    def rate(self, probe: str, metric: str, window_s: float) -> float | None:
        """Per-second growth of a counter metric over the trailing window
        (e.g. live FPS from ``frames_completed``)."""
        series = self.series(probe, metric)
        if not series:
            return None
        now = series[-1][0]
        window = [(t, v) for t, v in series if t >= now - window_s]
        if len(window) < 2:
            return None
        (t0, v0), (t1, v1) = window[0], window[-1]
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0)

    def alarms_for(self, rule_name: str) -> list[Alarm]:
        return [a for a in self.alarms if a.rule == rule_name]
