"""One leg loop: only the evaluator's round walk talks to sites.

Every round — a plan's, or an incremental refresh's — goes through
``distributed/evaluator.py``'s walk, which is where retry and degrade,
speculation and round spans live. A second loop elsewhere
would lack them, so no other module under ``src/repro`` may call an
engine's ``run_legs`` or ``evaluate`` or a channel's ``send_to_site``.
The engines that define those methods, and whatever an ``evaluate`` call
is made on other than an ``engine``, pass.

A round runs on the calling thread, so the modules it runs through
import no ``concurrent.futures`` and build no ``threading.Thread``. (The
site server's thread per connection is its own business.)
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


#: The modules a round runs through, under ``src/repro``.
ROUND_MODULES = (
    "distributed/evaluator.py",
    "distributed/executor.py",
    "distributed/recovery.py",
    "net/channel.py",
    "net/socket_channel.py",
)


def _thread_uses(source: str) -> list:
    """Where ``source`` imports ``concurrent.futures`` or names
    ``threading.Thread``: ``(line, what)`` pairs."""
    found = []
    threads = {"threading.Thread"}  # the names that mean the class here
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "concurrent":
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "concurrent":
                found.append((node.lineno, f"from {node.module} import ..."))
            elif node.module == "threading":
                for alias in node.names:
                    if alias.name == "Thread":
                        threads.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name in threads:
            found.append((node.lineno, name))
    return sorted(found)


def test_a_round_builds_no_thread_and_no_pool():
    uses = [
        f"{module}:{line}: {what}"
        for module in ROUND_MODULES
        for line, what in _thread_uses((SRC / module).read_text(encoding="utf-8"))
    ]
    assert not uses, "threads on a round's path:\n" + "\n".join(uses)


def test_the_thread_gate_sees_pools_and_threads():
    """Each way of starting a leg thread the gate is there to catch."""
    planted = (
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import threading\n"
        "from threading import Thread as T\n"
        "threading.Thread(target=print).start()\n"
        "class Leg(T): pass\n"
    )
    assert [line for line, _what in _thread_uses(planted)] == [1, 2, 5, 6]
