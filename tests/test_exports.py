"""Every callable the package exports has a caller besides its unit tests.

A name in the ``__all__`` of any package module counts as used when the package source refers to it outside its own
definition, or when the acceptance gate calls it.  A public method or
property of a class listed there counts as used only when one of them reads
it as an attribute (``x.name``): a bare name that happens to match, such as a
local function, does not count.  No package module imports another's
underscore names, and only ``generate._rng`` derives a random stream.
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


def test_no_module_imports_a_private_name():
    # a name with a leading underscore belongs to its module: no other
    # package module imports it (dunders such as __version__ are public)
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tetralab")):
                private += [
                    f"{path.stem}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert private == [], f"private names imported across modules: {private}"


def test_only_generate_rng_derives_a_random_stream():
    # the determinism of the suites (README, "Reports and determinism") rests
    # on one stream rule: a SeedSequence or a Philox bit generator is named,
    # by attribute, bare name or import, only inside generate._rng
    stream_names = {"SeedSequence", "Philox"}
    found = []

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        named = (
            {node.attr} if isinstance(node, ast.Attribute)
            else {node.id} if isinstance(node, ast.Name)
            else {alias.name for alias in node.names} if isinstance(node, (ast.Import, ast.ImportFrom))
            else set()
        )
        found.extend(f"{module}:{where or '<module>'}:{name}" for name in named & stream_names)
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    assert sorted(found) == ["generate:_rng:Philox", "generate:_rng:SeedSequence"], found
