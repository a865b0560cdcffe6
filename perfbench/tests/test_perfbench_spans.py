"""Self-time arithmetic and span recording of the benchmark's traced pass."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import Recorder, aggregate, self_times  # noqa: E402


def _span(id, name, parent, start, end):
    return {"id": id, "name": name, "parent": parent, "start": start, "end": end, "info": {}}


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "a1", 1, 2.0, 3.0),
        _span(3, "b", 0, 5.0, 9.0),
        _span(4, "b1", 3, 6.0, 10.5),  # runs past its parent: only [6, 9] is covered
        _span(5, "b2", 3, 7.0, 8.0),  # inside b1's interval: covered once, not twice
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 4.5, 5: 1.0})


def test_aggregate_sums_self_time_and_calls_per_name():
    spans = [
        _span(0, "root", None, 0.0, 6.0),
        _span(1, "leaf", 0, 1.0, 2.0),
        _span(2, "leaf", 0, 3.0, 5.0),
    ]
    spans[2]["info"] = {"q": 7}
    agg = aggregate(spans)
    assert agg["root"]["self_s"] == pytest.approx(3.0)
    assert agg["leaf"] == {"self_s": pytest.approx(3.0), "calls": 2, "infos": [{"q": 7}]}


def test_recorder_wraps_targets_as_the_caller_sees_them(monkeypatch):
    mod = types.ModuleType("perfbench_fake_mod")
    exec("def inner(n):\n    return n + 1\n\ndef outer(n):\n    return inner(n) * 2\n", mod.__dict__)
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.install(
        [
            (mod.__name__, "outer", "fake.outer", None),
            (mod.__name__, "inner", "fake.inner", lambda args, kwargs, result: {"n": args[0], "out": result}),
            (mod.__name__, "gone", "fake.gone", None),
            ("perfbench_no_such_module", "f", "fake.f", None),
        ]
    )
    assert mod.outer(3) == 8
    assert rec.absent == [f"{mod.__name__}.gone", "perfbench_no_such_module.f"]
    outer, inner = rec.dump()
    assert (outer["name"], outer["parent"], outer["start"], outer["end"]) == ("fake.outer", None, 0.0, 3.0)
    assert (inner["name"], inner["parent"], inner["start"], inner["end"]) == ("fake.inner", 0, 1.0, 2.0)
    assert inner["info"] == {"n": 3, "out": 4}
    assert self_times(rec.dump()) == {0: 2.0, 1: 1.0}
