"""No module of kothe imports a name it neither uses nor re-exports, or
defers an import it could make at the top.

No linter runs on this package, so this stands in for the unused-import
check: a name bound by an import must be read somewhere in the module, or
be listed in its ``__all__``.  An import inside a function breaks an
import cycle, so it may name only a sibling module that the module does
not already import at its top.  ``__init__.py`` only re-exports and is left
out."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kothe"


def _dead_imports(tree: ast.Module) -> set[str]:
    imported = set()
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return imported - used - exported


def _needless_deferred_imports(tree: ast.Module) -> set[str]:
    top = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}
    deferred = {
        node.module
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    return top & deferred


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used_or_exported(module):
    assert _dead_imports(ast.parse((SRC / module).read_text())) == set()


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_deferred_import_repeats_a_top_level_one(module):
    assert _needless_deferred_imports(ast.parse((SRC / module).read_text())) == set()
