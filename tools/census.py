"""Function census: which kind of run first reaches each function in src/repro.

Report only: no gate and no CI step. Four phases run in order under
``sys.setprofile``, and each function is credited to the first that calls
it: ``example`` (every ``examples/*.py``), ``bench`` (``benchmarks/`` at
``REPRO_BENCH_FAST=1``), ``ledger`` (the four ledger workloads, then
``tools/check_determinism.py``) and ``tier-1`` (``tests/``). A function
no phase calls is ``nothing``, unless its ``def`` line carries
``# pragma: no cover`` (a debug aid such as a ``__repr__``): those are
``excluded``, whoever calls them, so ``nothing`` lists only functions
someone can act on. Two rules:

* Run the benches with ``--benchmark-disable``. pytest-benchmark's
  ``PauseInstrumentation`` unsets ``sys.setprofile`` during timed runs,
  which hides whatever a bench times (it once hid the SLO controller).
* Reach subprocesses through a ``sitecustomize`` on ``PYTHONPATH``:
  ``tests/test_examples.py`` runs the examples as subprocesses, and the
  ledger runs its workloads in child processes. Each process writes what
  it saw at exit (one that leaves through ``os._exit`` records nothing).

A function is keyed by its file and qualified name (``co_qualname``), so a
source edit made while the phases run moves no key. Python 3.10 has no
``co_qualname``; there the key is the function's first line, and an edit
mid-run can re-bucket every later function in that file.

Usage: ``python tools/census.py [--phase example ...]`` (all four phases
take about ten minutes on two cores).
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PY = sys.executable
#: What a function is keyed by, beside its file: see the module docstring.
KEY = "co_qualname" if sys.version_info >= (3, 11) else "co_firstlineno"
LEDGER = ["fleet-stage-90", "fleet-plan-cloud-16", "home-fitness-shared",
          "home-static-features-on"]

PHASES = {
    "example": [[PY, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))],
    "bench": [[PY, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
               "--benchmark-disable"]],
    "ledger": [[PY, "benchmarks/ledger/run.py", "--workload", w, "--seconds",
                "1", "--out", "{tmp}/ledger"] for w in LEDGER]
    + [[PY, "tools/check_determinism.py"]],
    "tier-1": [[PY, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"]],
}

SITECUSTOMIZE = """\
import atexit, os, sys, threading
_src, _seen = {src!r}, set()
def _profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(_src):
        _seen.add((frame.f_code.co_filename, frame.f_code.{key}))
def _dump():
    sys.setprofile(None)
    path = os.path.join(os.environ["CENSUS_OUT"], f"{{os.getpid()}}.txt")
    with open(path, "a") as out:
        out.writelines(f"{{f}}\\t{{n}}\\n" for f, n in _seen)
if os.environ.get("CENSUS_OUT"):
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
"""


def functions() -> tuple[dict[tuple, tuple[int, str]], set[tuple]]:
    """(file, ``KEY`` as the code object reports it) -> (first line,
    qualified name), and the keys whose ``def`` line carries ``# pragma: no
    cover``."""
    found, excluded = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "name", None)
                qual = f"{prefix}.{name}" if prefix else name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno]
                               + [d.lineno for d in child.decorator_list])
                    key = (str(path), qual if KEY == "co_qualname" else line)
                    found[key] = (line, qual)
                    if "pragma: no cover" in lines[child.lineno - 1]:
                        excluded.add(key)
                    # what a function defines is named as co_qualname does
                    qual += ".<locals>"
                stack.append((child, qual if name else prefix))
    return found, excluded


def run_phase(commands: list[list[str]], tmp: str) -> set[tuple]:
    out = Path(tmp) / "seen"
    out.mkdir(exist_ok=True)
    env = dict(os.environ, CENSUS_OUT=str(out), REPRO_BENCH_FAST="1",
               PYTHONPATH=os.pathsep.join([tmp, str(ROOT / "src")]))
    for command in commands:
        command = [part.format(tmp=tmp) for part in command]
        print("census:", " ".join(command[1:]), file=sys.stderr)
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL)
        if done.returncode:
            print(f"census: exited {done.returncode}", file=sys.stderr)
    seen = set()
    for path in out.glob("*.txt"):
        for line in path.read_text().splitlines():
            filename, name = line.split("\t")
            seen.add((filename, name if KEY == "co_qualname" else int(name)))
        path.unlink()
    return seen


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", action="append", choices=list(PHASES),
                        help="run only this phase (repeatable)")
    args = parser.parse_args()
    table, excluded = functions()
    first: dict[tuple, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(src=str(SRC), key=KEY))
        for phase in args.phase or list(PHASES):
            for key in run_phase(PHASES[phase], tmp) & table.keys():
                first.setdefault(key, phase)
    bucket = {key: "excluded" if key in excluded else first.get(key, "nothing")
              for key in table}
    for key in sorted(table, key=lambda key: (key[0], table[key][0])):
        line, qual = table[key]
        where = Path(key[0]).relative_to(ROOT)
        print(f"{bucket[key]:8} {where}:{line} {qual}")
    counts = Counter(bucket.values())
    print(f"\n{len(table)} functions: " + ", ".join(
        f"{phase} {counts[phase]}"
        for phase in [*PHASES, "nothing", "excluded"]))


if __name__ == "__main__":
    main()
