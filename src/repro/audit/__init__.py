"""Runtime invariant auditing and the determinism harness.

``repro.audit`` holds the opt-in correctness layer: the
:class:`InvariantAuditor` (conservation laws over frames, messages and
metrics, plus kernel hygiene) and the determinism harness (record a
scenario's full kernel event stream twice under one seed and diff them).
Both are passive kernel observers — enabling them changes no event
timing, no RNG draw, and no message payload, so an audited run is
bit-for-bit identical to an unaudited one.

Enable auditing through the facade::

    home = VideoPipe.paper_testbed(seed=7)
    home.enable_audit()          # or REPRO_AUDIT=1 in the environment
    ...
    violations = home.check_invariants()

Note: :mod:`repro.audit.scenarios` (the examples-as-scenarios catalogue)
is deliberately *not* imported here — it imports :mod:`repro.apps`, which
would make ``repro`` import itself. Import it explicitly where needed.
"""

from .auditor import InvariantAuditor, Violation
from .determinism import (
    EventTap,
    check_determinism,
    first_divergence,
    record_scenario,
    stream_digest,
)

__all__ = [
    "EventTap",
    "InvariantAuditor",
    "Violation",
    "check_determinism",
    "first_divergence",
    "record_scenario",
    "stream_digest",
]
