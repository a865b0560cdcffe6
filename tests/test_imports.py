"""Every name a package module imports is used there.

A name counts as used when the module reads it, or when the benchmark traces
it under that module (`perfbench/workloads.TRACE_TARGETS` wraps
`module.name`, so the import is how the call becomes visible to it).
`__init__.py` re-exports by importing and is left out.  The README's
"Library entry points" block must import too.
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


def test_readme_entry_points_are_exported():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    (node,) = [n for n in ast.walk(ast.parse(block)) if isinstance(n, ast.ImportFrom) and n.module == "quadprime"]
    names = [alias.name for alias in node.names]
    assert names
    missing = [name for name in names if not hasattr(quadprime, name)]
    assert not missing, f"README lists {missing}, which quadprime does not export"
