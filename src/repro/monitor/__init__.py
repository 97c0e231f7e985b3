"""Monitoring (§7 future work): probes, time series, alarms."""

from .failure_detector import FailureDetector, HeartbeatResponder, failure_probe
from .monitor import AlarmRule, Monitor
from .orchestrator import Orchestrator, evacuate_dead_device_remedy
from .probes import (
    device_probe,
    pipeline_probe,
    service_probe,
    slo_probe,
    tracing_probe,
)

__all__ = [
    "AlarmRule",
    "FailureDetector",
    "HeartbeatResponder",
    "Monitor",
    "Orchestrator",
    "device_probe",
    "evacuate_dead_device_remedy",
    "failure_probe",
    "pipeline_probe",
    "service_probe",
    "slo_probe",
    "tracing_probe",
]
