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

The scenarios the harness runs are not in the package: each is an
``examples/`` script's own ``build``, called with shortened arguments from
the table in ``tools/scenarios.py``, next to the tests and tools that run
it.
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
