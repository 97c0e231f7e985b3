"""Structural guard: exactly one placement planner under ``src/repro``.

The §7 "scheduling" question used to be answered twice — a latency-only
model with its own exhaustive sweep and greedy refinement beside the
capacity-aware one, each with its own tie-break (docs/PLACEMENT.md,
"Tie-breaks"). A second planner needs a second class that evaluates
placements, a second loop that scores candidates, or a fourth strategy tag
on a ``PlacementPlan``; this test forbids each.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PLANNER = "pipeline/optimizer.py"

LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)
STRATEGY_TAGS = {"COLOCATED", "SINGLE_HOST", "OPTIMIZED"}


class PlannerSites(ast.NodeVisitor):
    """Collects, for one file: classes defining ``evaluate``; calls that
    score a placement, enumerate a product, build a ``CostModel`` (directly
    or through ``plan_optimized``) or build a ``PlacementPlan``, each with
    its enclosing function and the loops around it; and every imported
    module name."""

    def __init__(self):
        self.evaluators = []
        self.scored = []      # (function, kinds of the enclosing loops)
        self.products = []    # function
        self.models = []      # function
        self.plan_tags = []   # the ``strategy=`` argument, unparsed
        self.imports = []
        self._functions = ["<module>"]
        self._loops = []

    def visit_ClassDef(self, node):
        if any(isinstance(item, ast.FunctionDef) and item.name == "evaluate"
               for item in node.body):
            self.evaluators.append(node.name)
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()

    def visit_Import(self, node):
        self.imports += [alias.name for alias in node.names]

    def visit_ImportFrom(self, node):
        self.imports.append(node.module or "")
        self.imports += [alias.name for alias in node.names]

    def visit_Call(self, node):
        func, where = node.func, self._functions[-1]
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if isinstance(func, ast.Attribute) and name in ("score", "evaluate"):
            self.scored.append((where, tuple(self._loops)))
        elif name == "product":
            self.products.append(where)
        elif name in ("CostModel", "plan_optimized"):  # which builds its own
            self.models.append(where)
        elif name == "PlacementPlan":
            self.plan_tags += [ast.unparse(keyword.value)
                               for keyword in node.keywords
                               if keyword.arg == "strategy"] or ["<none>"]
        self.generic_visit(node)

    def generic_visit(self, node):
        if isinstance(node, LOOPS):
            self._loops.append(type(node).__name__)
            super().generic_visit(node)
            self._loops.pop()
        else:
            super().generic_visit(node)


@functools.cache
def planner_sites():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        visitor = PlannerSites()
        visitor.visit(ast.parse(path.read_text()))
        found[path.relative_to(SRC).as_posix()] = visitor
    return found


def collected(attribute):
    return {path: getattr(visitor, attribute)
            for path, visitor in planner_sites().items()
            if getattr(visitor, attribute)}


def test_one_class_evaluates_placements():
    assert collected("evaluators") == {PLANNER: ["CostModel"]}


def test_one_exhaustive_sweep_and_one_greedy_loop():
    assert collected("products") == {PLANNER: ["_search"]}
    # nothing outside the planner scores a placement, in or out of a loop
    assert set(collected("scored")) == {PLANNER}
    scored = collected("scored")[PLANNER]
    # candidates are scored in the search's sweep and in the greedy walk,
    # the one loop that repeats until no move helps
    assert {function for function, loops in scored if loops} == {
        "_search", "_local_search"}
    assert [function for function, loops in scored if "While" in loops] == [
        "_local_search"]


def test_a_plan_carries_one_of_three_strategy_tags():
    tags = [tag for tags in collected("plan_tags").values() for tag in tags]
    assert sorted(tags) == sorted(STRATEGY_TAGS)


def test_no_scheduler_module():
    assert not [path for path in planner_sites() if "scheduler" in path]
    importing = {path: names for path, names in collected("imports").items()
                 if any("scheduler" in name for name in names)}
    assert importing == {}


def test_the_online_optimizer_builds_one_model_per_decision():
    assert collected("models")[PLANNER].count("_consider") == 1
