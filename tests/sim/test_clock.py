"""Structural guard: only the kernel moves the clock.

``Kernel.now`` is a plain attribute, so reading it costs no call (it is
read about six times per executed event). Nothing enforces that it is
read-only at run time; this test does so in the source instead. No file
under ``src/``, ``examples/``, ``tools/`` or ``benchmarks/`` assigns an
attribute named ``now`` — bar ``sim/kernel.py``, whose ``step``, ``run``
and realtime pacing are the clock's only writers — and none reads the
removed ``_now``. Test doubles that stand in for a kernel live under
``tests/`` and are not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "examples", "tools", "benchmarks")
KERNEL = ROOT / "src" / "repro" / "sim" / "kernel.py"


def clock_breaches(tree: ast.AST, may_write: bool) -> list[int]:
    """Lines of one file that assign ``<anything>.now`` (unless *may_write*)
    or touch ``<anything>._now``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "_now" or (
                node.attr == "now" and not may_write
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.append(node.lineno)
    return sorted(found)


def scanned_files() -> list[Path]:
    return sorted(path for top in SCANNED for path in (ROOT / top).rglob("*.py"))


def test_the_scan_covers_the_clocks_readers():
    names = {path.relative_to(ROOT).as_posix() for path in scanned_files()}
    assert "src/repro/sim/kernel.py" in names
    assert "src/repro/devices/cpu.py" in names
    assert "benchmarks/ledger/run.py" in names


def test_only_the_kernel_writes_the_clock():
    breaches = {}
    for path in scanned_files():
        lines = clock_breaches(ast.parse(path.read_text(), str(path)),
                               may_write=path == KERNEL)
        if lines:
            breaches[path.relative_to(ROOT).as_posix()] = lines
    assert not breaches, breaches


def test_the_guard_catches_a_write_and_a_private_read():
    source = ("def f(self):\n"
              "    self.kernel.now = 1.0\n"
              "    self.kernel.now += 1.0\n"
              "    return self.kernel._now\n")
    assert clock_breaches(ast.parse(source), may_write=False) == [2, 3, 4]
    assert clock_breaches(ast.parse(source), may_write=True) == [4]
    assert clock_breaches(ast.parse("t = kernel.now\n"), may_write=False) == []
