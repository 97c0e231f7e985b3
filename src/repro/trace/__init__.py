"""Per-frame distributed tracing (see ``docs/TRACING.md``).

Off by default; ``VideoPipe.enable_tracing()`` turns it on home-wide. The
span model lives in :mod:`repro.trace.span`, collection in
:mod:`repro.trace.recorder`, the ``chrome://tracing`` / Perfetto exporter
in :mod:`repro.trace.export`, and the Fig. 6 latency decomposition in
:mod:`repro.trace.critical_path`.
"""

from .critical_path import critical_path
from .export import to_chrome_trace, write_chrome_trace
from .recorder import TraceRecorder
from .span import (
    CAT_COMPUTE,
    CAT_FRAME,
    CAT_MARK,
    CAT_QUEUE,
    CAT_SERIALIZE,
    CAT_SERVICE,
    CAT_STAGE,
    CAT_WIRE,
    Span,
    SpanContext,
    trace_id_for,
)

__all__ = [
    "CAT_COMPUTE",
    "CAT_FRAME",
    "CAT_MARK",
    "CAT_QUEUE",
    "CAT_SERIALIZE",
    "CAT_SERVICE",
    "CAT_STAGE",
    "CAT_WIRE",
    "Span",
    "SpanContext",
    "TraceRecorder",
    "critical_path",
    "to_chrome_trace",
    "trace_id_for",
    "write_chrome_trace",
]
