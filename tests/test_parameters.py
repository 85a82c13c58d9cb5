"""Every parameter of a package function is read by its body.

A parameter that the body never reads is an option no value can change:
the function behaves the same whatever a caller passes.  ``self`` and
``cls`` are exempt.  A read inside a nested function or lambda counts,
since the closure uses the value.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tetralab"


def unread_parameters(path: Path) -> list[str]:
    """``module.function(parameter)`` for each parameter no load in the body reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out.extend(
            f"{path.stem}.{node.name}({p.arg})"
            for p in params
            if p is not None and p.arg not in {"self", "cls"} and p.arg not in read
        )
    return out


def test_every_parameter_is_read():
    unread = [name for path in sorted(SRC.glob("*.py")) for name in unread_parameters(path)]
    assert unread == [], f"parameters the body never reads: {unread}"
