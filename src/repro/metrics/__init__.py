"""Instrumentation: latency summaries, rate meters, collectors, reports."""

from .collector import MetricsCollector
from .recovery import RecoveryTracker
from .report import format_table
from .stats import Summary, format_histogram, summarize, weighted_mean

__all__ = [
    "MetricsCollector",
    "RecoveryTracker",
    "Summary",
    "format_histogram",
    "format_table",
    "summarize",
    "weighted_mean",
]
