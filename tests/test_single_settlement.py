"""Structural guard: exactly one settlement path under ``src/repro``.

"Drain a mailbox, release each event's refs, drop each frame once" was
hand-copied at six sites and re-broken at a different copy in PRs 3, 5, 8
and 10 (``docs/AUDIT.md`` §Settlement). A new copy needs two things this
test forbids outside their one home: raw access to a mailbox's queued
events, and the in-flight guard.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.mark.parametrize("pattern, allowed", [
    (r"\.mailbox\.drain\(", {"runtime/moduleruntime.py"}),
    (r"frame_in_flight\(", {"metrics/collector.py", "runtime/settlement.py"}),
])
def test_only_the_settlement_path_uses(pattern, allowed):
    users = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if re.search(pattern, path.read_text())
    }
    assert users == allowed
