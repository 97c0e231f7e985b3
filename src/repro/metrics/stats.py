"""Summary statistics for latency samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-plus summary of a sample set (seconds or any unit)."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
        }

    @classmethod
    def empty(cls) -> "Summary":
        """The zero-sample summary (``count == 0``, all statistics 0.0).

        Returned by collector-level summaries when nothing was recorded —
        e.g. a chaos plan killed every frame — so report code can render a
        row instead of crashing. The bare :func:`summarize` still raises on
        empty input: silently producing zeros there would mask missing data
        at the call sites that *do* expect samples.
        """
        return cls(count=0, mean=0.0, std=0.0, minimum=0.0,
                   p50=0.0, p90=0.0, p99=0.0, maximum=0.0)


def summarize(values) -> Summary:
    """Compute a :class:`Summary`; raises on an empty sample."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std()),
        minimum=float(data.min()),
        p50=float(np.percentile(data, 50)),
        p90=float(np.percentile(data, 90)),
        p99=float(np.percentile(data, 99)),
        maximum=float(data.max()),
    )


def weighted_mean(counts: dict) -> float:
    """Mean of a value -> count histogram (0.0 when empty). Used for the
    batch-size distributions the fast-path ablation reports."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return sum(value * count for value, count in counts.items()) / total


def format_histogram(counts: dict) -> str:
    """Render a value -> count histogram compactly: ``1:x12 4:x3``."""
    if not counts:
        return "-"
    return " ".join(f"{value}:x{counts[value]}" for value in sorted(counts))


class RateMeter:
    """Counts events over simulated time; reports steady-state rates.

    ``rate(warmup_s)`` excludes an initial warmup window so cold-start
    effects (model loading, pipeline fill) don't bias FPS numbers.
    """

    def __init__(self) -> None:
        self.timestamps: list[float] = []

    def tick(self, now: float) -> None:
        self.timestamps.append(now)

    def rate(self, end_time: float, warmup_s: float = 0.0) -> float:
        """Events per second between ``warmup_s`` and ``end_time``.

        Both window edges are enforced: ticks after ``end_time`` (a meter
        read mid-run, or reused across measurement windows) don't inflate
        the rate they are outside of.
        """
        window = end_time - warmup_s
        if window <= 0:
            raise ValueError("measurement window is empty")
        counted = sum(1 for t in self.timestamps if warmup_s <= t <= end_time)
        return counted / window
