"""Structural guard: exactly one service execution path in ``services/host.py``.

Acquire a worker → decode → resolve refs → charge CPU → handle → trace →
release → cache → resolve used to be written twice (a solo generator and a
batch generator, each with its own ``Interrupt`` / ``Exception`` /
``finally`` arms), the down-check and cache lookup twice (one per entry
point) and the crash drain twice. A second path needs a second function
that waits for a worker, or a second call site for one of the steps every
call passes through; this test forbids each. ``tests/services/
test_host_streams.py`` is the behavioural referee.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
HOST = SRC / "services" / "host.py"

#: every call passes through each of these exactly once, so each has one
#: call site: admission (lookup, decode), dispatch (process), execution
#: (resolve)
ONE_CALL_SITE = {
    "_cache_lookup": "_admit",
    "decode_frames_inline": "_admit",
    "process": "_dispatch",
    "resolve_refs": "_run",
}
DELETED = ("_run_batch", "_execute", "_submit", "_drop_batch_pending",
           "_drop_inflight", "use_store")


class HostSites(ast.NodeVisitor):
    """Per function in ``host.py``: whether it yields on
    ``workers.request()``, and which of the guarded names it calls."""

    def __init__(self):
        self.worker_waits = []
        self.calls = {name: [] for name in ONE_CALL_SITE}
        self._functions = ["<module>"]

    def visit_FunctionDef(self, node):
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    def visit_Yield(self, node):
        if "workers.request()" in ast.unparse(node):
            self.worker_waits.append(self._functions[-1])
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "process" and "kernel.process" not in ast.unparse(func):
            name = None
        if name in self.calls:
            self.calls[name].append(self._functions[-1])
        self.generic_visit(node)


def host_sites():
    visitor = HostSites()
    visitor.visit(ast.parse(HOST.read_text()))
    return visitor


def test_one_generator_waits_for_a_worker():
    assert host_sites().worker_waits == ["_run"]


def test_every_step_has_one_call_site():
    assert host_sites().calls == {
        name: [function] for name, function in ONE_CALL_SITE.items()}


def test_the_second_path_is_gone():
    for path in SRC.rglob("*.py"):
        found = re.findall(r"\b(%s)\b" % "|".join(DELETED), path.read_text())
        assert not found, f"{path.relative_to(SRC)} still names {found}"
