"""Every callable the package exports has a caller besides its unit tests.

A name in ``tetralab.__all__`` counts as used when the package source refers
to it outside its own definition, or when the acceptance gate calls it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import tetralab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tetralab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# kept as the oracle of the Toeplitz-multiplicativity tests in test_hardy
TEST_ORACLES = {"symbol_product"}


def referenced_names(path: Path) -> set[str]:
    """Names read in ``path``, not counting reads inside the body that defines them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_export_has_a_caller():
    used = referenced_names(ACCEPTANCE)
    for path in sorted(SRC.glob("*.py")):
        used |= referenced_names(path)
    exported = {name for name in tetralab.__all__ if callable(getattr(tetralab, name))}
    unused = sorted(exported - used - TEST_ORACLES)
    assert unused == [], f"exported but only called by unit tests: {unused}"
