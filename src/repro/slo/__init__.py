"""SLO guardian: declarations, overload detection, closed-loop control.

See :mod:`repro.slo.spec` for the :class:`SLO` contract,
:mod:`repro.slo.detector` for classification, :mod:`repro.slo.ladder` for
the reversible degradation ladder, :mod:`repro.slo.admission` for
deploy-time admission control and :mod:`repro.slo.controller` for the loop
that ties them together. ``docs/SLO.md`` walks through the design.
"""

from .controller import SLOController
from .ladder import LadderAction, find_source
from .spec import (
    ADMITTED,
    HEALTHY,
    OVERLOADED,
    QUEUED,
    REJECTED,
    SLO,
    STRAINED,
    AdmissionDecision,
    SLOConfig,
    attainment,
    quantile,
)

__all__ = [
    "ADMITTED",
    "AdmissionDecision",
    "HEALTHY",
    "LadderAction",
    "OVERLOADED",
    "QUEUED",
    "REJECTED",
    "SLO",
    "SLOConfig",
    "SLOController",
    "STRAINED",
    "attainment",
    "find_source",
    "quantile",
]
