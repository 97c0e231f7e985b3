"""Structural guard: a process is its own completion signal.

Seven sites used to write ``done = kernel.signal();
kernel.process(self._x(…, done)); return done`` with the generator ending in
``done.succeed(v)`` — a second completion signal beside the ``Process.done``
the process already has, one more event per job to hand the result over, and
a signal left pending forever when the process died before its hand-written
``succeed``. They return ``kernel.process(…).done`` now and the generator
``return``s the value (docs/PERF.md "What is an event", mechanism 3). This
test forbids the idiom: no function under ``src/repro`` both creates a
signal and hands that name to the generator it starts with
``kernel.process(``. ``tests/runtime/test_moduleruntime.py::
TestRemoteSendThatDies`` is the behavioural referee.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _creates_signal(value: ast.AST) -> bool:
    """``kernel.signal(…)`` / ``Signal(…)``, bare or with a method chained."""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "signal":
                return True
            if isinstance(func, ast.Name) and func.id == "Signal":
                return True
    return False


def hand_made_completions(tree: ast.AST) -> list[str]:
    """``function:name`` for every signal a function creates and passes
    into the generator call of a ``kernel.process(`` call."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        signals = {
            target.id
            for node in ast.walk(function) if isinstance(node, ast.Assign)
            if _creates_signal(node.value)
            for target in node.targets if isinstance(target, ast.Name)
        }
        for call in ast.walk(function):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "process"
                    and "kernel" in ast.unparse(call.func.value)):
                continue
            for generator in call.args:
                if not isinstance(generator, ast.Call):
                    continue
                passed = {node.id for node in ast.walk(generator)
                          if isinstance(node, ast.Name)}
                found += [f"{function.name}:{name}"
                          for name in sorted(signals & passed)]
    return found


def test_no_function_hands_a_fresh_signal_to_the_process_it_starts():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        found = hand_made_completions(ast.parse(path.read_text()))
        if found:
            offenders[str(path.relative_to(SRC))] = found
    assert offenders == {}


def test_the_guard_sees_the_idiom_and_spares_a_signal_per_call():
    idiom = '''
def execute(self, seconds):
    done = self.kernel.signal(name="job")
    self.kernel.process(self._run(seconds, done), name="cpu.job")
    return done
'''
    per_call = '''
def _admit(self, payload):
    done = self.kernel.signal(name="call")
    self._dispatch([_Call(payload, done)])
    return done

def _dispatch(self, items):
    proc = self.kernel.process(self._run(items), name="exec")
'''
    assert hand_made_completions(ast.parse(idiom)) == ["execute:done"]
    assert hand_made_completions(ast.parse(per_call)) == []


def test_the_copying_waiter_and_the_done_parameters_are_gone():
    runtime = (SRC / "runtime" / "moduleruntime.py").read_text()
    assert "_forward" not in runtime
    generators = {
        "devices/cpu.py": "_run", "net/link.py": "_transfer",
        "net/topology.py": "_relay", "net/broker.py": "_relay",
        "services/stubs.py": "_call", "runtime/moduleruntime.py": "_send_remote",
    }
    for relative, name in generators.items():
        functions = [node for node in ast.walk(ast.parse((SRC / relative).read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name == name]
        assert functions, f"{relative} lost {name}"
        for function in functions:
            assert "done" not in [arg.arg for arg in function.args.args], relative
