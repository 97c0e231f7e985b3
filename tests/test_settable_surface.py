"""Structural guard: the settable surface is the size of its use.

One rule decides what a user may set (DESIGN.md, "What is configurable and
why"): a field of a ``*Config`` / ``*Policy`` dataclass under ``src/repro``
stays a field only if some caller sets it — ``src/``, ``examples/``,
``benchmarks/`` or ``tools/`` to a non-default value, or a test that needs
another value to reach behaviour other than the value's own validation.
Anything else is a module constant beside its one reader. ``ModuleConfig``
and ``PipelineConfig`` are exempt: they are Listing 1's file format.

This test checks the floor of that rule: every field must be passed by
keyword (``Config(field=…)``, ``replace(cfg, field=…)``) or as a
``**{"field": …}`` key in some call outside its defining file that is not
inside a ``pytest.raises`` block — a field only its own ``ConfigError``
case sets fails. Copied into the parent of the change that added it, it
fails on 15 fields: ``SLOConfig.{overload_ratio, fps_overload_frac,
queue_strain, queue_overload, min_samples, resolution_factor, fps_factor,
history}``, ``OptimizerConfig.{capacity_weight_s, memory_weight_s}``,
``PerfConfig.{dedup_retain_limit, cache_max_entries, cache_ttl_s}``,
``DataPlaneConfig.arena_capacity_bytes`` and ``ScalingPolicy.min_replicas``.
The keyword is the only evidence it reads, so it cannot see the rest of
what that change removed. Some passed by name coincidence: ``slo=``,
``balancing=``, ``optimizer=``, ``seed=``, ``step=``, ``cooldown_s=``,
``check_interval_s=``, ``max_batch=`` and ``max_spans=`` are also
arguments of other calls. Others passed because a test set them only to
plumb them through: ``FleetConfig.pricing``, ``AuditConfig.{max_violations,
strict}``, ``DataPlaneConfig.{arena, pool_slots}``,
``OptimizerConfig.restarts`` and the six ladder-shape fields of
``SLOConfig``. So it is a floor, like the public-surface guard: it stops a
field nobody sets from coming back, and review applies the rest of the
rule.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXEMPT = {"ModuleConfig", "PipelineConfig"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ast.unparse(target).split(".")[-1] == "dataclass":
            return True
    return False


def settable_classes() -> dict[str, tuple[Path, list[str]]]:
    """``{class name: (defining file, field names)}`` for every
    ``*Config`` / ``*Policy`` dataclass under ``src/repro``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ClassDef)
                    and node.name.endswith(("Config", "Policy"))
                    and node.name not in EXEMPT and _is_dataclass(node)):
                fields = [item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                found[node.name] = (path, fields)
    return found


def _raises_block(node: ast.AST) -> bool:
    return isinstance(node, ast.With) and any(
        isinstance(item.context_expr, ast.Call)
        and ast.unparse(item.context_expr.func).endswith("raises")
        for item in node.items)


def keywords_set(tree: ast.AST) -> set[str]:
    """Every keyword a call in *tree* passes, by name or as a constant key
    of a ``**{…}`` literal, outside ``pytest.raises`` blocks."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if _raises_block(node):
            return
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    found.add(keyword.arg)
                elif isinstance(keyword.value, ast.Dict):
                    found.update(key.value for key in keyword.value.keys
                                 if isinstance(key, ast.Constant)
                                 and isinstance(key.value, str))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def python_files() -> list[Path]:
    files = []
    for folder in ("src", "tests", "examples", "benchmarks", "tools"):
        files += sorted((ROOT / folder).rglob("*.py"))
    return files


def unset_fields() -> list[str]:
    per_file = {path: keywords_set(ast.parse(path.read_text()))
                for path in python_files()}
    unset = []
    for name, (home, fields) in settable_classes().items():
        for field in fields:
            if not any(field in words for path, words in per_file.items()
                       if path != home):
                unset.append(f"{name}.{field}")
    return unset


def test_every_config_field_is_set_by_some_caller():
    unset = unset_fields()
    assert not unset, (
        f"{len(unset)} config fields are set by no call outside their own "
        f"file except a pytest.raises case — make each a module constant "
        f"beside its reader: {unset}")


def test_the_guard_sees_the_classes_and_ignores_validation_cases():
    classes = settable_classes()
    assert {"FleetConfig", "SLOConfig", "PerfConfig"} <= set(classes)
    assert not EXEMPT & set(classes)
    code = '''
with pytest.raises(ConfigError):
    SLOConfig(history=0)
SLOConfig(**{"fps_steps": 1})
replace(config, recovery_hold_s=1.0)
'''
    assert keywords_set(ast.parse(code)) == {"fps_steps", "recovery_hold_s"}
