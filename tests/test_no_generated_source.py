"""``src/`` runs no generated source: no module calls the builtins
``exec``, ``eval`` or ``compile``. Only a bare-name call counts, so
methods such as ``re.compile`` and ``Expr.eval`` pass."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FORBIDDEN = frozenset(("exec", "eval", "compile"))


def test_src_calls_no_exec_eval_or_compile():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules under {SRC}"
    calls = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}: {node.func.id}(...)"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in FORBIDDEN
    ]
    assert not calls, "builtin code execution in src/:\n" + "\n".join(calls)
