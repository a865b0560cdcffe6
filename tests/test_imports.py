"""Every name a package module imports is used there, and every definition is read.

A name counts as used when the module reads it, or when the benchmark traces
it under that module (`perfbench/workloads.TRACE_TARGETS` wraps
`module.name`, so the import is how the call becomes visible to it).
`__init__.py` re-exports by importing and is left out.  The README's
"Library entry points" block must import too.  A top-level function, class
or constant, or a class method, counts as read when `src`, that README block
or the benchmark reads it (a string naming it, such as a trace target,
counts); tests alone do not count.
"""

import ast
import sys
from pathlib import Path

import pytest

import quadprime

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import TRACE_TARGETS  # noqa: E402

MODULES = sorted(p for p in (ROOT / "src" / "quadprime").glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names - {"annotations"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = {attr for module, attr, _, _ in TRACE_TARGETS if module == f"quadprime.{path.stem}"}
    unused = imported_names(tree) - read - traced
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def readme_entry_points() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    (node,) = [n for n in ast.walk(ast.parse(block)) if isinstance(n, ast.ImportFrom) and n.module == "quadprime"]
    return [alias.name for alias in node.names]


def read_names(tree: ast.AST) -> set[str]:
    """Names and attributes the tree loads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def definitions(tree: ast.Module) -> list[str]:
    """Qualified names of the top-level functions, classes and constants, and of the non-dunder methods."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node.name)
        if isinstance(node, ast.Assign):
            defs.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            defs.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            )
    return defs


def test_every_definition_is_read_outside_tests():
    package = ROOT / "src" / "quadprime"
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    read = set(readme_entry_points())
    for tree in trees.values():
        read |= read_names(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= read_names(tree)
        read |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unread = [
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        for qualname in definitions(tree)
        if qualname.split(".")[-1] not in read
    ]
    assert not unread, f"nothing outside the tests reads {unread}"


def test_readme_entry_points_are_exported():
    names = readme_entry_points()
    assert names
    missing = [name for name in names if not hasattr(quadprime, name)]
    assert not missing, f"README lists {missing}, which quadprime does not export"
