"""Every function, method and class that kothe defines is named somewhere
else: in its own package, in the tests or in the benchmark.

No linter runs on this package, so this stands in for a dead-code check,
next to the unused-import one.  A name counts as used where code reads it
(a name, an attribute or an import) or where a string other than a
docstring spells it, as the benchmark's tracer does with "Class.method".
Its own ``def`` or ``class`` line does not count.  Dunder methods are left
out: Python calls them."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kothe"
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.Module) -> set[int]:
    nodes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _DEFS)]
    return {
        id(n.body[0].value)
        for n in nodes
        if n.body and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)
    }


def _names_used(tree: ast.Module) -> set[str]:
    skip = _docstrings(tree)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            used.update(_WORD.findall(node.value))
    return used


def _definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, _DEFS) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_definition_is_named_elsewhere():
    trees = {p: ast.parse(p.read_text()) for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")}
    used = set().union(*map(_names_used, trees.values()))
    defined = set().union(*(_definitions(tree) for p, tree in trees.items() if p.parent == SRC))
    assert defined - used == set()
