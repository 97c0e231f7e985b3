"""``import repro`` needs only numpy, the one dependency ``pyproject.toml``
declares.

networkx and scipy are ``dev`` extras, kept as test oracles. A fresh
interpreter shows that ``import repro`` loads neither, and a static scan
shows that no file under ``src/repro`` or ``examples/`` imports either, so
no code path can need them. ``tests/test_examples.py`` runs every example
once with both blocked: the example homes include the fitness home, which
plans and routes over the pipeline DAG and the home network, and the
object-tracking home, which labels connected components in every frame (a
missing labeller once failed quietly, so that example must print a track).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ORACLES = {"networkx", "scipy"}


def run(script: str) -> str:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), path])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def oracle_imports(path: Path) -> list[str]:
    """``file:line module`` for every import of networkx or scipy in
    *path*."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                  for name in names if name.split(".")[0] in ORACLES]
    return found


def test_import_loads_neither_library():
    loaded = run("import sys, repro\n"
                 "print(sorted({'networkx', 'scipy'} & set(sys.modules)))")
    assert loaded.strip() == "[]"


def test_no_library_or_example_file_imports_an_oracle():
    files = [*sorted((SRC / "repro").rglob("*.py")),
             *sorted((ROOT / "examples").glob("*.py"))]
    assert len(files) > 100
    assert [hit for path in files for hit in oracle_imports(path)] == []
