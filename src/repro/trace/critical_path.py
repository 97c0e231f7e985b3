"""Critical-path analysis over span trees.

Answers Fig. 6's real question: *where did this frame's latency go?* For
each completed frame the analyzer walks the span tree backwards from the
completion time — at every level, child spans are visited latest-end first;
a child still running when the cursor reaches it joins the critical path
(the path recurses into it), any gap between children is charged to the
parent span's category, and children that finished before the path ever
needed them (parallel fan-out branches that were not the slowest) are
skipped. The result is an exact partition of the frame's end-to-end
duration into category buckets: ``queue`` (mailbox, worker-pool and batch
waits), ``compute`` (module handlers and service execution), ``wire``
(network transfers), ``serialize`` (encode/decode/marshal), ``service``
(the caller-side call envelope's own time: dispatch and the reply leg) and
``frame`` (inter-hop dispatch gaps on the root itself).

App-level stage spans (``stage.*``, mirrors of ``MetricsCollector``
samples) are aggregated separately — they overlap the tree and would
double-count inside the walk — which is exactly what makes
:meth:`CriticalPathReport.stage_means_ms` directly comparable to
:meth:`repro.metrics.collector.MetricsCollector.stage_means_ms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .span import CAT_FRAME, CAT_MARK, CAT_STAGE, Span

_EPS = 1e-12


@dataclass(slots=True)
class FrameBreakdown:
    """One frame's end-to-end duration, partitioned by span category."""

    trace_id: str
    total_s: float
    by_category: dict[str, float] = field(default_factory=dict)


@dataclass(slots=True)
class CriticalPathReport:
    """The decomposition of every completed frame, plus stage aggregates."""

    frames: list[FrameBreakdown] = field(default_factory=list)
    #: stage name -> latency samples (seconds), from ``stage.*`` spans.
    stage_samples: dict[str, list[float]] = field(default_factory=dict)
    #: traces observed without a completed root span (dropped / in flight).
    unfinished: int = 0

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def category_totals_s(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for frame in self.frames:
            for category, seconds in frame.by_category.items():
                totals[category] = totals.get(category, 0.0) + seconds
        return totals

    def category_means_ms(self) -> dict[str, float]:
        """Mean per-frame milliseconds spent in each category."""
        if not self.frames:
            return {}
        count = len(self.frames)
        return {
            category: total / count * 1e3
            for category, total in sorted(self.category_totals_s().items())
        }

    def stage_means_ms(self) -> dict[str, float]:
        """Mean latency per app-level stage in milliseconds — the same
        quantity ``MetricsCollector.stage_means_ms`` reports, but derived
        from the trace."""
        return {
            stage: sum(samples) / len(samples) * 1e3
            for stage, samples in self.stage_samples.items()
            if samples
        }


def critical_path(
    source: "Iterable[Span]", pipeline: str | None = None
) -> CriticalPathReport:
    """Decompose every completed frame in *source* (a span iterable or a
    :class:`~repro.trace.recorder.TraceRecorder`); *pipeline* restricts the
    analysis to one pipeline's traces."""
    spans = list(getattr(source, "spans", source))
    if pipeline is not None:
        prefix = f"{pipeline}/"
        spans = [s for s in spans if s.trace_id.startswith(prefix)]

    report = CriticalPathReport()
    roots: dict[str, Span] = {}
    children: dict[str, dict[int, list[Span]]] = {}
    trace_ids: set[str] = set()
    for span in spans:
        trace_ids.add(span.trace_id)
        if span.category == CAT_STAGE:
            stage = span.name.removeprefix("stage.")
            report.stage_samples.setdefault(stage, []).append(span.duration)
            continue
        if span.category == CAT_MARK:
            continue
        if span.category == CAT_FRAME and span.parent_id is None:
            roots[span.trace_id] = span
            continue
        if span.parent_id is not None:
            children.setdefault(span.trace_id, {}).setdefault(
                span.parent_id, []
            ).append(span)

    for trace_id in sorted(trace_ids):
        root = roots.get(trace_id)
        if root is None or root.attrs.get("outcome") != "completed":
            report.unfinished += 1
            continue
        segments: dict[str, float] = {}
        _walk(root, children.get(trace_id, {}), root.end, segments)
        report.frames.append(FrameBreakdown(
            trace_id=trace_id,
            total_s=root.duration,
            by_category=segments,
        ))
    return report


def _walk(
    span: Span,
    children: dict[int, list[Span]],
    cap: float,
    segments: dict[str, float],
) -> None:
    """Charge the window [span.start, min(span.end, cap)] to categories.

    *cap* clips children that outlive their parent's relevant window (e.g.
    a sink handler that keeps running after it marked the frame complete).
    """
    cursor = min(span.end, cap)
    kids = sorted(
        children.get(span.span_id, ()), key=lambda k: k.end, reverse=True
    )
    for kid in kids:
        kid_end = min(kid.end, cursor)
        kid_start = max(kid.start, span.start)
        if kid_end - kid_start <= _EPS:
            continue  # off the critical path (a faster parallel branch)
        gap = cursor - kid_end
        if gap > _EPS:
            segments[span.category] = segments.get(span.category, 0.0) + gap
        _walk(kid, children, kid_end, segments)
        cursor = kid_start
        if cursor - span.start <= _EPS:
            break
    remainder = cursor - span.start
    if remainder > _EPS:
        segments[span.category] = segments.get(span.category, 0.0) + remainder
