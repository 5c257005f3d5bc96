"""Every name a package module imports is used, and every function, class
and method it defines is read somewhere in the package.  No linter runs in
CI, so these are the checks that keep deletions from leaving imports, and
code with no caller, behind.

A name counts as used when the module reads it anywhere, names it in
`__all__` or reads it in a string annotation; an import statement with
`# noqa: F401` on any of its lines (a re-export) is exempt.  A name that
no module reads is kept only with a reason, and the two reasons that can
be read off the sources are checked: an acceptance import must be imported
by the acceptance tests, a bench hook listed in the bench's HOOKS.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "phaseeval"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACING = ROOT / "bench" / "tracing.py"


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


# The functions, classes and methods that no package module reads, each kept
# for a reader outside the package.
KEPT = {
    "aggregate.ResultTensor.cell_at": "acceptance import",
    "aggregate.ResultTensor.cells": "bench/tracing.py UNITS counts a built tensor's cells",
    "aggregate._sample_std": "acceptance import",
    "aggregate.ordered_mean": "acceptance import",
    "aggregate.phase_metric_tensor": "acceptance import",
    "confusion.confusion_of": "acceptance import",
    "confusion.sum_confusions": "acceptance import",
    "core.extract_segments": "bench hook",
    "metrics.MetricCell.is_defined": "read on acceptance-imported cells by the acceptance tests",
    "metrics.apply_policy": "acceptance import and bench hook",
    "metrics.macro_metric": "acceptance import and bench hook",
    "metrics.phase_metric": "acceptance import and bench hook",
    "relaxed.relax_flags": "acceptance import and bench hook",
    "relaxed.relax_flags_legacy": "acceptance import and bench hook",
    "relaxed.relaxed_accuracy": "acceptance import",
    "relaxed.relaxed_metric": "acceptance import",
}


def _defined(tree: ast.Module):
    """(name, is_method) of each top-level function and class of a module,
    and of each method of its classes other than the dunders Python calls."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.ClassDef):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", True


def unread_names(sources: dict[str, str]) -> list[str]:
    """`module.name` of each function, class or method defined in
    `sources` (module -> text) that none of them reads.  A top-level name is
    read when any source uses it (see _used) or loads it as an attribute; a
    method, when any source loads its name as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used, attributes = set(), set()
    for tree in trees.values():
        used |= _used(tree)
        attributes |= {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    unread = []
    for module, tree in trees.items():
        for name, method in _defined(tree):
            last = name.rpartition(".")[2]
            if last not in attributes and (method or last not in used):
                unread.append(f"{module}.{name}")
    return sorted(unread)


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_the_check_finds_an_unread_name():
    sources = {
        "a": """
class C:
    def __init__(self): pass
    def read(self): pass
    def unread(self): pass
    @property
    def used(self): pass
def used(): pass
def planted(): pass
def _quoted(): pass
""",
        "b": """
from .a import C, used
def f(c: "_quoted"):
    return used(), C().read
""",
    }
    # C.used shares its name with a function that is read, but a method is
    # read only as an attribute
    assert unread_names(sources) == ["a.C.unread", "a.C.used", "a.planted", "b.f"]


def test_the_check_finds_a_function_planted_in_the_package():
    sources = _package_sources()
    sources["relaxed"] += "\n\ndef planted_and_never_called():\n    pass\n"
    assert unread_names(sources) == sorted([*KEPT, "relaxed.planted_and_never_called"])


def test_every_package_function_class_and_method_is_read():
    unread = unread_names(_package_sources())
    missing = sorted(set(unread) - set(KEPT))
    assert not missing, "defined but never read in src/:\n" + "\n".join(missing)
    assert unread == sorted(KEPT), "KEPT names something a module now reads"


def acceptance_imports() -> set[str]:
    """`module.name` of each name the acceptance tests import from the
    package, and `module.name.attr` for each attribute name they read, as on
    an imported class."""
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    imported = {
        f"{node.module.removeprefix('phaseeval.')}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("phaseeval.")
        for alias in node.names
    }
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return imported | {f"{name}.{attr}" for name in imported for attr in attributes}


def bench_hooks() -> set[str]:
    """`module.attribute` of each hook that the bench's HOOKS lists, read
    from the source of bench/tracing.py without importing it."""
    (hooks,) = (
        node.value
        for node in ast.parse(TRACING.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]
    )
    return {".".join(pair) for pair in ast.literal_eval(hooks)}


def false_reasons(kept: dict[str, str]) -> list[str]:
    """Each `kept` entry whose reason names an acceptance import that the
    acceptance tests do not import, or a bench hook that HOOKS does not list."""
    claims = (("acceptance import", acceptance_imports()), ("bench hook", bench_hooks()))
    return sorted(
        f"{name}: false claim of {claim}"
        for name, reason in kept.items()
        for claim, names in claims
        if claim in reason and name not in names
    )


def test_the_check_finds_a_false_reason():
    planted = {
        **KEPT,
        "aggregate.ordered_mean": "acceptance import and bench hook",
        "relaxed.graph_rules": "acceptance import",
    }
    assert false_reasons(planted) == [
        "aggregate.ordered_mean: false claim of bench hook",
        "relaxed.graph_rules: false claim of acceptance import",
    ]


def test_every_kept_reason_holds():
    assert not false_reasons(KEPT)
