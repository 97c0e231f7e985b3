"""Structural guard: the public surface is the size of its use.

One rule decides what a package exports (DESIGN.md, "What is public and
why"): a name is in an ``__all__`` only if an example, a bench, a tool, a
doc other than the generated ``docs/API.md``, or another file under
``src/repro`` names it. An export the paper names and nothing uses is kept
the same way — DESIGN.md's paragraph lists each one and says where the
paper names it. A name only its own file and its own tests use is a
private helper or a dead feature, and an export nobody reads is how the
surface grew to 427 names. The scan is a word-boundary match, so it is a
floor, not a proof of need: it stops the silent regrowth, review does the
rest.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

def packages():
    """Every package under ``src/repro`` whose ``__init__`` has an
    ``__all__``: ``{init path: (exported names, {name: defining file})}``."""
    found = {}
    for init in sorted(SRC.rglob("__init__.py")):
        tree = ast.parse(init.read_text())
        exported, origin = None, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module and node.level:
                base = init.parent.joinpath(*node.module.split("."))
                source = base / "__init__.py" if base.is_dir() else (
                    base.with_suffix(".py"))
                for alias in node.names:
                    origin[alias.asname or alias.name] = source
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                exported = ast.literal_eval(node.value)
        if exported is not None:
            found[init] = (exported, origin)
    return found


def defining_file(init, name, found):
    """Follow re-exports (``repro`` → ``repro.faults`` → ``faults/plan.py``)
    down to the file that defines ``name``."""
    while name in found.get(init, ((), {}))[1]:
        init = found[init][1][name]
    return init


@functools.cache
def corpus():
    """The words of everything that can be a *user* of an export: the
    source tree minus the package ``__init__``s (a re-export is not a use),
    the examples, benches and tools, and every doc but the generated API
    reference."""
    files = [path for path in SRC.rglob("*.py") if path.name != "__init__.py"]
    for folder in ("examples", "benchmarks", "tools"):
        files += (ROOT / folder).rglob("*.py")
    files += [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    files += [path for path in (ROOT / "docs").glob("*.md")
              if path.name != "API.md"]
    return {path: set(re.findall(r"\w+", path.read_text()))
            for path in files}


def unused_exports():
    found = packages()
    unused = []
    for init, (exported, _) in found.items():
        package = ".".join(init.parent.relative_to(SRC.parent).parts)
        for name in exported:
            home = defining_file(init, name, found)
            if not any(name in words for path, words in corpus().items()
                       if path != home):
                unused.append((package, name))
    return unused


def test_every_export_has_a_user_outside_its_file_and_its_tests():
    unused = unused_exports()
    assert not unused, (
        f"{len(unused)} exported names are used by nothing but their own "
        f"file and tests/ — make them private or delete them: {unused}")


def test_a_package_init_imports_only_what_it_exports():
    """``from .x import y`` in a package ``__init__`` with no ``y`` in its
    ``__all__`` is a second, unlisted public surface."""
    for init, (exported, origin) in packages().items():
        extra = sorted(set(origin) - set(exported))
        assert not extra, f"{init.relative_to(SRC)} imports {extra} unexported"
