"""Structural guard: exactly one wiring path under ``src/repro``.

Every (feature x resource) attachment used to be written twice in the
facade — once where the resource was admitted, once in the feature's
``enable_*`` replay loop — and the copies drifted (DESIGN.md §5). A
new copy needs one of the attach primitives below, or to hand a tracer or
lineage recorder to someone else's object; this test forbids both outside
``VideoPipe._wire*``.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FACADE = "core/videopipe.py"

ATTACH_CALLS = {
    "watch_store", "watch_arena", "watch_metrics", "watch_transport",
    "watch_autoscaler", "watch_slo", "watch_liveops", "add_probe",
}
OBSERVER_ATTRS = {"tracer", "lineage"}


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
            # ``self.tracer = ...`` is an object keeping its own attribute
            # (a host's default, LiveOpsManager's recorder, the facade's
            # switch); anything else sets it on somebody else's object
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
