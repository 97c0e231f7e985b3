"""Structural guard: exactly one settlement path under ``src/repro``.

"Drain a mailbox, release each event's refs, drop each frame once" was
hand-copied at six sites and re-broken at a different copy in PRs 3, 5, 8
and 10 (``docs/AUDIT.md`` §Settlement). A new copy needs two things this
test forbids outside their one home: raw access to a mailbox's queued
events, and the in-flight guard. Ending a frame by hand — completing it,
returning the source its credit, or freeing it on a failure path — is
likewise the runtime's job: sinks call ``ctx.finish`` and a raising
handler's frame is settled by the module worker, and only a settlement
marks a frame's credit owed and only the context pays it.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.mark.parametrize("pattern, allowed", [
    (r"\.mailbox\.drain\(", {"runtime/moduleruntime.py"}),
    (r"frame_in_flight\(", {"metrics/collector.py", "runtime/context.py",
                            "runtime/settlement.py"}),
    (r"\.frame_completed\(", {"runtime/observe.py"}),
    (r"signal_source\(", {"runtime/context.py"}),
    (r"credits_owed", {"runtime/wiring.py", "runtime/settlement.py",
                       "runtime/context.py"}),
])
def test_only_the_settlement_path_uses(pattern, allowed):
    users = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if re.search(pattern, path.read_text())
    }
    assert users == allowed


def test_no_failure_path_ends_a_frame():
    """No ``except`` or ``finally`` block under ``apps/`` or ``fleet/``
    finishes or releases a frame: a handler that raises has done neither,
    and the worker settles its input as ``handler_failed``."""
    offenders = []
    for package in ("apps", "fleet"):
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Try):
                    continue
                blocks = [handler.body for handler in node.handlers]
                for stmt in [s for block in blocks for s in block] + node.finalbody:
                    offenders += [
                        f"{path.relative_to(SRC).as_posix()}:{call.lineno}"
                        for call in ast.walk(stmt)
                        if isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("finish", "release")
                    ]
    assert offenders == []
