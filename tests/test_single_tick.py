"""Structural guard: one way to tick a controller, one record of what it did.

Seven periodic mechanisms — the autoscaler, the SLO controller, the online
optimizer, the failure detector, the evacuation tick, the monitor and the
live-ops canary judge — each ran a hand-rolled loop: a ``kernel.process``
with a ``_loop`` generator stopped by an ``Interrupt`` or by a flag that
left a sleeping process to wake once more, or a callback that re-armed
itself with ``kernel.schedule``. They all tick through ``Kernel.every`` now,
whose handle's ``cancel()`` is the one stop, and they record their decisions
as one :class:`~repro.actions.Action` type instead of five record classes.
This test forbids the old shapes in the control-plane files. The
behavioural referees are ``tests/sim/test_every.py`` and
``tests/control/test_action_golden.py``.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CONTROL_PLANE = ["services/scaling.py", "slo", "monitor",
                 "pipeline/optimizer.py", "liveops"]
OLD_RECORDS = ("ScalingEvent", "LadderAction", "ReplanEvent", "DetectionEvent")


def control_plane_files() -> list[Path]:
    files = []
    for entry in CONTROL_PLANE:
        path = SRC / entry
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def hand_rolled_ticks(tree: ast.AST) -> list[str]:
    """What the guard forbids in one file: a ``kernel.process(`` call, an
    ``Interrupt`` import, and a function that passes itself to a
    ``.schedule(`` call (a callback re-arming itself)."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"
                and ast.unparse(node.func.value).endswith("kernel")):
            found.append(f"kernel.process: {ast.unparse(node)}")
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == "Interrupt" for alias in node.names):
            found.append("Interrupt import")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "schedule"):
                    continue
                named = {n.attr if isinstance(n, ast.Attribute) else n.id
                         for arg in call.args for n in ast.walk(arg)
                         if isinstance(n, (ast.Attribute, ast.Name))}
                if node.name in named:
                    found.append(f"{node.name} re-arms itself")
    return found


def test_control_plane_ticks_only_through_kernel_every():
    offenders = {}
    for path in control_plane_files():
        found = hand_rolled_ticks(ast.parse(path.read_text()))
        if found:
            offenders[str(path.relative_to(SRC))] = found
    assert offenders == {}


def test_the_five_old_records_are_gone():
    names = re.compile(r"\b(" + "|".join(OLD_RECORDS) + r")\b")
    mentions, actions = {}, []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        found = sorted(set(names.findall(text)))
        if found:
            mentions[str(path.relative_to(SRC))] = found
        actions += [str(path.relative_to(SRC))
                    for node in ast.walk(ast.parse(text))
                    if isinstance(node, ast.ClassDef) and node.name == "Action"]
    assert mentions == {}
    assert actions == ["actions.py"]


def test_the_guard_sees_each_old_shape():
    loop = '''
from ..errors import Interrupt

class Scaler:
    def start(self):
        self._proc = self.kernel.process(self._loop(), name="scaler")
'''
    rearm = '''
def _tick(self, upgrade):
    self.kernel.schedule(0.5, self._tick, upgrade)
'''
    ticker = '''
def start(self):
    self._ticker = self.kernel.every(0.5, self._tick)

def _probe(self, device):
    self.kernel.schedule(0.0, self._on_probe, device)
'''
    assert hand_rolled_ticks(ast.parse(loop)) == [
        "Interrupt import",
        "kernel.process: self.kernel.process(self._loop(), name='scaler')"]
    assert hand_rolled_ticks(ast.parse(rearm)) == ["_tick re-arms itself"]
    assert hand_rolled_ticks(ast.parse(ticker)) == []
