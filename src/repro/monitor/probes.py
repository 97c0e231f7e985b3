"""Monitoring probes: point-in-time readings of the home's health.

Part of the paper's stated future work (§7): "we aim to include automatic
deployment, scheduling and monitoring components to VideoPipe". A probe
turns one observable (a device CPU, a service host, a pipeline) into a
stream of numeric samples the monitor collects on a fixed period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..devices.device import Device
from ..pipeline.pipeline import Pipeline
from ..services.host import ServiceHost


@dataclass(frozen=True, slots=True)
class Sample:
    """One reading: (time, probe name, metric, value)."""

    at: float
    probe: str
    metric: str
    value: float


#: A probe is a callable returning {metric: value} when sampled.
ProbeFn = Callable[[], dict[str, float]]


def device_probe(device: Device) -> ProbeFn:
    """CPU occupancy and frame-store pressure for one device."""

    def read() -> dict[str, float]:
        store = device.frame_store
        return {
            "cpu_in_use": float(device.cpu.cores.in_use),
            "cpu_queue": float(device.cpu.cores.queue_length),
            "cpu_utilization": device.cpu.utilization(),
            "frame_store_used": float(len(store)),
            "frame_store_retained": float(store.retained_count),
            "dedup_hits": float(store.dedup_hits),
            "dedup_ratio": store.dedup_ratio(),
        }

    return read


def service_probe(host: ServiceHost) -> ProbeFn:
    """Replica occupancy and queue for one service host."""

    def read() -> dict[str, float]:
        return {
            "busy_workers": float(host.busy_workers),
            "queue_length": float(host.queue_length),
            "replicas": float(host.replicas),
            "utilization": host.utilization(),
            "errors": float(host.errors),
            "cache_hits": float(host.cache_hits),
            "cache_hit_rate": host.cache_hit_rate(),
            "avg_batch_size": host.avg_batch_size(),
        }

    return read


def pipeline_probe(pipeline: Pipeline) -> ProbeFn:
    """Progress and error counters for one pipeline."""

    def read() -> dict[str, float]:
        metrics = pipeline.metrics
        mailboxes = 0
        errors = 0
        for name in pipeline.module_names():
            deployed = pipeline.module(name)
            mailboxes += deployed.mailbox_depth
            errors += len(deployed.errors)
        return {
            "frames_entered": float(metrics.counter("frames_entered")),
            "frames_completed": float(metrics.counter("frames_completed")),
            "frames_dropped": float(metrics.counter("frames_dropped")),
            "frames_in_flight": float(metrics.frames_in_flight),
            "module_errors": float(errors),
            "queued_events": float(mailboxes),
            "service_rejections": float(metrics.counter("service_rejections")),
        }

    return read


def audit_probe(auditor) -> ProbeFn:
    """Violation accounting for the home's invariant auditor. Sampling runs
    the instant-checks (message/metrics conservation) so a violation shows
    up on the next monitor period, not only at quiesce."""

    def read() -> dict[str, float]:
        auditor.check_now()
        return {
            "violations": float(auditor.violation_count),
            "dropped_violations": float(auditor.dropped_violations),
            "checks_run": float(auditor.checks_run),
        }

    return read


def slo_probe(controller) -> ProbeFn:
    """Enrollment states, ladder depth and admission counters for the
    home's SLO controller."""

    def read() -> dict[str, float]:
        counters = controller.metrics.counters()
        enrollments = controller.enrollments
        return {
            "enrolled": float(len(enrollments)),
            "overloaded": float(
                sum(1 for e in enrollments if e.state == "overloaded")
            ),
            "strained": float(
                sum(1 for e in enrollments if e.state == "strained")
            ),
            "ladder_depth": float(sum(e.depth for e in enrollments)),
            "actions": float(len(controller.ladder_actions())),
            "deploys_requested": float(counters.get("deploys_requested", 0)),
            "deploys_rejected": float(counters.get("deploys_rejected", 0)),
            "deploys_withdrawn": float(counters.get("deploys_withdrawn", 0)),
            "deploys_deployed": float(counters.get("deploys_deployed", 0)),
            "deploys_queued_now": float(len(controller.queued)),
        }

    return read


def tracing_probe(recorder) -> ProbeFn:
    """Span volume and frame accounting for the home's trace recorder."""

    def read() -> dict[str, float]:
        return {
            "spans": float(recorder.span_count),
            "open_frames": float(recorder.open_frame_count),
            "dropped_spans": float(recorder.dropped_spans),
            "frames_traced": float(recorder.frames_started),
            "frames_finished": float(recorder.frames_finished),
            "frames_dropped": float(recorder.frames_dropped),
        }

    return read
