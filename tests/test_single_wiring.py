"""Structural guard: exactly one wiring path under ``src/repro``.

Every (feature x resource) attachment used to be written twice in the
facade — once where the resource was admitted, once in the feature's
``enable_*`` replay loop — and the copies drifted (DESIGN.md §5). A
new copy needs one of the attach primitives below, or to set a wiring's
frame observers, or to fill a component's observer slot; this test forbids
all of these outside ``VideoPipe._wire*``.

Observers subscribe; components report. The frame events have one path
(``runtime/observe.py``), a frame store, arena, transport, service host or
action log tells the one observer in its slot, and nothing under the
packages in :data:`REPORTING_PACKAGES` reads a tracer, lineage recorder or
auditor — except the SLO controller's admission hook.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FACADE = "core/videopipe.py"

ATTACH_CALLS = {
    "watch_store", "watch_arena", "watch_metrics", "watch_transport",
    "watch_actions",
}
#: A wiring's frame observers, a component's observer slot, and the SLO
#: controller's auditor.
OBSERVER_ATTRS = {"observers", "observer", "auditor"}
#: What a component must not reach for: each is an observer of the events
#: it reports, not something its report sites call.
OBSERVER_NAMES = {"tracer", "lineage", "auditor"}
#: The packages whose components report events.
REPORTING_PACKAGES = ("runtime", "metrics", "frames", "net", "services",
                      "slo", "liveops")
#: ``(file, expression)`` reads that are not events of a slot: an admission
#: decision is not an action, so the SLO controller hands it to the auditor.
OBSERVER_READS_ALLOWED = {("slo/controller.py", "self.auditor")}


class WiringSites(ast.NodeVisitor):
    """Collects ``(what, enclosing function)`` for every attach call and
    every observer handed to another object."""

    def __init__(self):
        self.sites = []
        self._functions = ["<module>"]

    def visit_FunctionDef(self, node):
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ATTACH_CALLS:
            self.sites.append((func.attr, self._functions[-1]))
        self.generic_visit(node)

    def visit_Assign(self, node):
        for target in node.targets:
            # ``self.observers = ...`` is an object keeping its own
            # attribute; anything else sets it on somebody else's object
            if (isinstance(target, ast.Attribute)
                    and target.attr in OBSERVER_ATTRS
                    and not (isinstance(target.value, ast.Name)
                             and target.value.id == "self")):
                self.sites.append((f".{target.attr} =", self._functions[-1]))
        self.generic_visit(node)


@functools.cache
def wiring_sites():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        visitor = WiringSites()
        visitor.visit(ast.parse(path.read_text()))
        if visitor.sites:
            found[path.relative_to(SRC).as_posix()] = visitor.sites
    return found


def test_only_the_facades_wire_functions_attach_anything():
    found = wiring_sites()
    assert set(found) == {FACADE}, found
    outside = [(what, function) for what, function in found[FACADE]
               if not function.startswith("_wire")]
    assert outside == []


def test_each_attach_primitive_has_one_call_site():
    calls = [what for what, _ in wiring_sites()[FACADE]
             if what in ATTACH_CALLS]
    assert sorted(calls) == sorted(ATTACH_CALLS)


def attribute_read(node):
    """The attribute *node* reads: ``x.name``, or ``getattr(x, "name")``
    (and ``hasattr``) with a literal name; ``None`` for anything else (an
    assignment such as ``self.lineage = LineageRecorder(...)`` is a write:
    the live-ops manager owns the recorder the home subscribes)."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)):
        return node.args[1].value
    return None


def observer_reads():
    """``(file, expression)`` for every read of a tracer, lineage recorder
    or auditor attribute under the reporting packages."""
    found = set()
    for package in REPORTING_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if attribute_read(node) in OBSERVER_NAMES:
                    found.add((path.relative_to(SRC).as_posix(),
                               ast.unparse(node)))
    return found


def test_the_runtime_reads_no_observer():
    assert observer_reads() <= OBSERVER_READS_ALLOWED, (
        observer_reads() - OBSERVER_READS_ALLOWED)


def test_the_runtime_imports_nothing_from_trace():
    paths = [*(SRC / "runtime").rglob("*.py"), *(SRC / "services").rglob("*.py")]
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert "trace" not in module.split("."), (path, module)
