"""Every name a package module imports is used.  No linter runs in CI, so
this is the check that keeps deletions from leaving imports behind.

A name counts as used when the module reads it anywhere, names it in
`__all__` or reads it in a string annotation; an import statement with
`# noqa: F401` on any of its lines (a re-export) is exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phaseeval"


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            yield node.returns


def _read_names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _used(tree: ast.Module) -> set[str]:
    used = _read_names(tree)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _read_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that `source` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Import | ast.ImportFrom):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]  # `import a.b` binds a
            if name != "*" and name not in used:
                unused.append((node.lineno, name))
    return sorted(unused)


def test_the_check_finds_an_unused_import():
    source = """
from __future__ import annotations
import os, os.path
import sys  # noqa: F401
from typing import (
    TYPE_CHECKING,
    List,
    Mapping,
)
from .x import Exported, Quoted, json as js
if TYPE_CHECKING:
    from .y import Late
__all__ = ["Exported"]

def f(a: "Quoted", b: list["Late"]) -> Mapping:
    return os.sep
"""
    assert unused_imports(source) == [(5, "List"), (10, "js")]


def test_no_package_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "io.py" in modules
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)
