"""Every name a package module imports is used there.

A name counts as used when the module reads it, or when the benchmark traces
it under that module (`perfbench/workloads.TRACE_TARGETS` wraps
`module.name`, so the import is how the call becomes visible to it).
`__init__.py` re-exports by importing and is left out.
"""

import ast
import sys
from pathlib import Path

import pytest

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
