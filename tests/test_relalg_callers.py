"""Every public definition in ``repro.relalg`` has a caller in ``src/``.

The relational layer holds what the pipeline calls; what only the tests
call lives in ``tests/oracle/``. The gate collects every public top-level
function and class under ``src/repro/relalg/`` and every public method of
those classes, and fails on a name that no ``Name`` or ``Attribute`` node
under ``src/repro/`` references. Imports and the definitions themselves
do not count as references. Matching is by name only, so a method passes
when any object's attribute of that name is read.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
RELALG = SRC / "relalg"

#: Definitions kept without a caller in ``src/``, each with its reason.
ALLOWED = {
    "register_aggregate": "public API in repro.relalg.__all__: custom aggregates",
    "expr_equals": "public API in repro.relalg.__all__: structural equality of expressions",
    "from_csv_text": "public API in repro.relalg.__all__: CSV text in",
    "to_csv_text": "public API in repro.relalg.__all__: CSV text out",
    "compile_scalar": "row kernel named by bench_e2e/hooks.py (lines 89-91)",
    "compile_predicate": "row kernel named by bench_e2e/hooks.py (lines 89-91)",
    "compile_values": "row kernel named by bench_e2e/hooks.py (lines 89-91)",
    "kernel_cache_size": "kernel-cache introspection the tests read",
    "clear_kernel_cache": "kernel-cache reset the tests call",
    "built_views": "column introspection the tests read",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _definitions() -> dict:
    """Public top-level functions and classes, and public methods of those
    classes, under ``relalg/``: name -> where it is defined."""
    found = {}
    for path in sorted(RELALG.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            where = f"{path.relative_to(SRC.parent)}:{node.lineno}"
            found.setdefault(node.name, f"{where}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        found.setdefault(
                            member.name,
                            f"{path.relative_to(SRC.parent)}:{member.lineno}: "
                            f"{node.name}.{member.name}",
                        )
    return found


def _referenced() -> set:
    """Every name a ``Name`` or ``Attribute`` node under ``src/repro/`` reads."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_relalg_definition_has_a_caller_in_src():
    definitions = _definitions()
    assert definitions, f"no definitions under {RELALG}"
    referenced = _referenced()
    orphans = sorted(
        where
        for name, where in definitions.items()
        if name not in referenced and name not in ALLOWED
    )
    assert not orphans, (
        "relalg definitions no module under src/ calls (move them to tests/oracle/ "
        "or delete them):\n" + "\n".join(orphans)
    )


def test_every_allowed_name_is_still_defined():
    stale = sorted(set(ALLOWED) - set(_definitions()))
    assert not stale, f"allowlist entries with no definition: {stale}"
