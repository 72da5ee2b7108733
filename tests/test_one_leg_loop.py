"""One leg loop: only the evaluator's round walk talks to sites.

Every round — a plan's, or an incremental refresh's — goes through
``distributed/evaluator.py``'s walk, which is where retry and degrade,
speculation and round spans live. A second loop elsewhere
would lack them, so no other module under ``src/repro`` may call an
engine's ``run_legs`` or ``evaluate`` or a channel's ``send_to_site``.
The engines that define those methods, and whatever an ``evaluate`` call
is made on other than an ``engine``, pass.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
WALK = SRC / "distributed" / "evaluator.py"
LEG_CALLS = frozenset(("run_legs", "send_to_site"))


def _receiver(call: ast.Call):
    """The name a method call is made on (``engine`` in ``self.engine.x()``)."""
    owner = call.func.value
    if isinstance(owner, ast.Attribute):
        return owner.attr
    return owner.id if isinstance(owner, ast.Name) else None


def _is_leg_call(node) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    method = node.func.attr
    return method in LEG_CALLS or (method == "evaluate" and _receiver(node) == "engine")


def test_only_the_round_walk_calls_site_legs():
    modules = sorted(SRC.rglob("*.py"))
    assert WALK in modules
    calls = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}: .{node.func.attr}(...)"
        for path in modules
        if path != WALK
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _is_leg_call(node)
    ]
    assert not calls, "site legs outside the evaluator's round walk:\n" + "\n".join(calls)


def test_the_gate_sees_the_walk_itself():
    """The walk makes all three calls, so a gate that found none there
    would be matching nothing."""
    tree = ast.parse(WALK.read_text(encoding="utf-8"))
    found = {node.func.attr for node in ast.walk(tree) if _is_leg_call(node)}
    assert found == LEG_CALLS | {"evaluate"}
