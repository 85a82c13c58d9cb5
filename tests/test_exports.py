"""Every callable the package exports has a caller besides its unit tests.

A name in the ``__all__`` of any package module counts as used when the package source refers to it outside its own
definition, or when the acceptance gate calls it.  A public method or
property of a class listed there counts as used only when one of them reads
it as an attribute (``x.name``): a bare name that happens to match, such as a
local function, does not count.
"""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tetralab"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

TEST_ORACLES = {
    # write the triple and symbol files that the CLI reads; the CLI tests
    # build their inputs with them
    "triple_to_obj",
    "symbol_to_obj",
}


def referenced_names(path: Path) -> tuple[set[str], set[str]]:
    """Bare names and attribute names read in ``path``, not counting reads
    inside the body that defines them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names: set[str] = set()
    attrs: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return names, attrs


def public_members(cls: type) -> set[str]:
    """Methods and properties ``cls`` itself defines, without a leading underscore."""
    return {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (
            callable(value)
            or isinstance(value, (property, functools.cached_property, staticmethod, classmethod))
        )
    }


def test_every_export_has_a_caller():
    names, attrs = referenced_names(ACCEPTANCE)
    exported = set()
    for path in sorted(SRC.glob("[!_]*.py")):
        more_names, more_attrs = referenced_names(path)
        names |= more_names
        attrs |= more_attrs
        module = importlib.import_module(f"tetralab.{path.stem}")
        for n in module.__all__:
            obj = getattr(module, n)
            if callable(obj):
                exported.add(n)
            if isinstance(obj, type):
                exported |= {f"{n}.{m}" for m in public_members(obj)}
    unused = sorted(
        n
        for n in exported
        if n.rpartition(".")[2] not in (attrs if "." in n else names | attrs) | TEST_ORACLES
    )
    assert unused == [], f"exported but only called by unit tests: {unused}"
