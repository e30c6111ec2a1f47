"""Spans and counters recorded by timing wrappers installed from outside segdyn.

A wrapper replaces every binding of one function object across the loaded
``segdyn.*`` modules (or the attribute on its class, for a method), so calls
made through any import path are timed. Wrappers pass arguments and return
values through untouched; counters are computed from them after the call.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int
    run: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run}


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``module`` under segdyn, ``attr`` is ``fn`` or
    ``Class.method``, ``counter(tracer, bound_args, result)`` is optional."""

    module: str
    attr: str
    counter: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """In-memory span stack; self time is a span minus its children."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.run = 0
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name=name, start=self._clock(), parent=parent, run=self.run))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = self._clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.seconds

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result
        return timed

    def install(self, probes) -> None:
        """Replace every binding of each probed function across the loaded
        segdyn modules; undo with restore()."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "segdyn" or key.startswith("segdyn."))]
        try:
            for probe in probes:
                self._install_one(probe, modules)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, probe: Probe, modules) -> None:
        module = sys.modules[f"segdyn.{probe.module}"]
        if "." in probe.attr:
            cls_name, meth = probe.attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            bindings = [(owner, meth)]
        else:
            original = getattr(module, probe.attr)
            bindings = [(m, key) for m in modules for key, value in list(vars(m).items())
                        if value is original]
        wrapper = self.wrap(probe.name, original, probe.counter)
        for owner, key in bindings:
            self._patches.append((owner, key, original))
            setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def self_by_root(self) -> dict[str, dict[str, float]]:
        """Self seconds per span name, grouped by the name of each span's root."""
        roots: list[str] = []
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            root = roots[span.parent] if span.parent >= 0 else span.name
            roots.append(root)
            row = out.setdefault(root, {})
            row[span.name] = row.get(span.name, 0.0) + span.self_s
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += span.seconds
            row["self_s"] += span.self_s
        return out
