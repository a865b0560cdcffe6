"""Span recording for the traced pass, and self-time arithmetic over the spans.

A span is one call of a wrapped function: name, start, end and the span it
was called from.  Spans stay in memory until the pass ends.  A layer's self
time is its span's duration minus the part of that interval covered by its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    info: dict = field(default_factory=dict)


class Recorder:
    """Collects nested spans from wrapped functions, one thread, one stack."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed while {popped.name} was open")

    def wrap(self, fn, name: str, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Replace each (module, attribute) with a traced wrapper.

        A target missing after a refactor is listed in `absent` and skipped.
        """
        for module_name, attr, name, info in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, info))

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, reach = 0.0, lo
        for c_lo, c_hi in sorted(children.get(s["id"], [])):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out[s["id"]] = (hi - lo) - covered
    return out


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Span name -> {"self_s": summed self time, "calls": count, "infos": [info, ...]}."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"self_s": 0.0, "calls": 0, "infos": []})
        agg["self_s"] += own[s["id"]]
        agg["calls"] += 1
        if s["info"]:
            agg["infos"].append(s["info"])
    return out
