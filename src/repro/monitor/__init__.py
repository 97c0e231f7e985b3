"""Monitoring (§7 future work): snapshot sampling, time series, alarms."""

from .failure_detector import FailureDetector, HeartbeatResponder
from .monitor import AlarmRule, Monitor

__all__ = [
    "AlarmRule",
    "FailureDetector",
    "HeartbeatResponder",
    "Monitor",
]
