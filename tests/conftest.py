"""Root test fixtures: the determinism helper and the REPRO_AUDIT gate.

``REPRO_AUDIT=1 pytest`` runs the whole suite with every ``VideoPipe``
auto-enabling the invariant auditor (see ``docs/AUDIT.md``); the autouse
gate below then fails any test whose env-enabled auditor recorded a
violation, turning the entire suite into a conservation-law sweep without
editing a single test.
"""

from __future__ import annotations

import os

import pytest

from repro.audit.auditor import live_auditors


@pytest.fixture
def assert_deterministic():
    """Run a ``scenario(seed) -> (home, run_fn)`` twice and fail with the
    first event-stream divergence if the runs differ."""
    from repro.audit.determinism import check_determinism

    def check(scenario, seed=7, name=None):
        report = check_determinism(scenario, seed=seed, name=name)
        assert report.ok, report.describe()
        return report

    return check


@pytest.fixture(autouse=True)
def _repro_audit_gate():
    """When REPRO_AUDIT is set, sweep auditors the env var created during
    this test and fail on any violation.

    Only ``source == "env"`` auditors participate: tests that construct an
    auditor explicitly (e.g. the mutation tests, which *want* violations)
    are exempt. Quiesce-only invariants are checked only when the kernel
    actually drained — a run stopped at a time limit legitimately has
    frames in flight.
    """
    if not os.environ.get("REPRO_AUDIT"):
        yield
        return
    before = set(live_auditors())
    yield
    failures = []
    for auditor in live_auditors():
        if auditor in before or auditor.source != "env":
            continue
        if auditor.kernel.pending_events == 0:
            auditor.check_quiesce()
        else:
            auditor.check_now()
        if auditor.violations:
            failures.append(auditor.report())
    assert not failures, (
        "REPRO_AUDIT: invariant violations detected:\n"
        + "\n".join(failures)
    )
