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
TestRemoteSendThatDies`` is the behavioural referee. Five of the seven —
``Cpu.execute``/``execute_fixed``, ``Link.transfer``, ``Topology.transfer``
and the cross-device ship — start no process at all now: a CPU job is a
``Resource.hold``, a link transfer is one arrival timer armed at the call,
and a relay and a ship chain their steps as waiters. The last two tests
here keep it so.
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


def _is_process_start(node: ast.AST) -> bool:
    """A ``kernel.process(…)`` / ``self.kernel.process(…)`` call."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "process"
            and "kernel" in ast.unparse(node.func.value))


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
            if not _is_process_start(call):
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


#: A cross-device ship's waiter chain: encode, transmit, settle.
SHIP_CHAIN = ("_ship", "_transmit", "_shipped")


def test_the_copying_waiter_and_the_done_parameters_are_gone():
    runtime = (SRC / "runtime" / "moduleruntime.py").read_text()
    assert "_forward" not in runtime
    generators = {"net/broker.py": "_relay", "services/stubs.py": "_call"}
    for relative, name in generators.items():
        functions = [node for node in ast.walk(ast.parse((SRC / relative).read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name == name]
        assert functions, f"{relative} lost {name}"
        for function in functions:
            assert "done" not in [arg.arg for arg in function.args.args], relative
    # a ship is no process but a chain of waiters, and its done is its one
    # completion signal: settled as a process's end is, inside the event
    # that resolves the send, never copied over with succeed() or fail()
    chain = {node.name: node for node in ast.walk(ast.parse(runtime))
             if isinstance(node, ast.FunctionDef) and node.name in SHIP_CHAIN}
    assert sorted(chain) == sorted(SHIP_CHAIN)
    for name, function in chain.items():
        nodes = list(ast.walk(function))
        assert not any(isinstance(node, (ast.Yield, ast.YieldFrom))
                       for node in nodes), name
        calls = {ast.unparse(node.func) for node in nodes
                 if isinstance(node, ast.Call)}
        assert not calls & {"done.succeed", "done.fail"}, name


def test_holding_a_core_or_a_link_starts_no_process():
    """A CPU job, a link transfer and a multi-hop relay hand control to
    nobody, so none is a process. A CPU job is a ``Resource.hold`` settled
    in its timer event (docs/PERF.md "What is an event", mechanism 4); a
    link transfer is no hold but one arrival timer, armed at the call on
    the medium's clock (mechanism 6); a relay chains the links' arrivals as
    waiters."""
    for relative in ("devices/cpu.py", "net/link.py", "net/topology.py"):
        tree = ast.parse((SRC / relative).read_text())
        starts = [ast.unparse(node) for node in ast.walk(tree)
                  if _is_process_start(node)]
        assert starts == [], relative
