"""Every function the benchmark traces exists in the package under the name it uses.

The benchmark wraps each `(module, attr)` of `perfbench/workloads.TRACE_TARGETS`
and only reports a missing one as "absent" at run time, where its per-layer
metrics then read 0.  This test makes a rename fail here instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import TRACE_TARGETS, import_quadprime  # noqa: E402

import_quadprime()


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _, _ in TRACE_TARGETS])
def test_trace_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} is missing"
