"""In-memory spans recorded around calls into scsparc.

The benchmark never edits the package. It records a span by replacing a
public function or method with a wrapper for the duration of a run
(`Tracer.patch`) and restoring the original afterwards, or by opening a
span around its own call (`Tracer.span`).

Every span records its name, start, end, parent and the id of the
operation it belongs to: one SPARC trial, one state-evolution run or one
CS trial. Time spent in the benchmark's own correctness checks is
recorded as excluded time and subtracted from every span that was open
while the check ran, so checks never count towards a measured duration.
"""

from __future__ import annotations

import functools
import json
import types
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Span", "Tracer"]


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "excl", "info")

    def __init__(self, id, parent, op, name, start):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.excl = 0.0
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        """Wall time minus the checks that ran inside the span."""
        return self.end - self.start - self.excl

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "excluded": self.excl,
            "info": self.info,
        }


class Tracer:
    """Collects spans in memory; `write` saves them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.check_s = 0.0
        self._paused = False
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_span = 0
        self._next_op = 0

    def open(self, name: str, new_op: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        if new_op:
            op = self._next_op
            self._next_op += 1
        else:
            op = parent.op if parent is not None else None
        sp = Span(self._next_span, parent.id if parent else None, op, name, perf_counter())
        self._next_span += 1
        self._stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = perf_counter()
        popped = self._stack.pop()
        if popped is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order")
        self.spans.append(sp)

    @contextmanager
    def span(self, name: str, new_op: bool = False):
        sp = self.open(name, new_op)
        try:
            yield sp
        finally:
            self.close(sp)

    @contextmanager
    def excluded(self):
        """Time a correctness check and remove it from every open span.

        Patched calls made by the check record no spans.
        """
        t0 = perf_counter()
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            dt = perf_counter() - t0
            self.check_s += dt
            for sp in self._stack:
                sp.excl += dt

    def patch(self, owner, attr: str, name: str, new_op: bool = False, after=None):
        """Replace owner.attr by a wrapper that records a span per call.

        `after(span, args, result)` runs once the span has closed, still
        inside the caller's span; it records facts about the result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            sp = tracer.open(name, new_op)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if after is not None:
                after(sp, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        out = {sp.id: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None and sp.parent in out:
                out[sp.parent] -= sp.duration
        return out

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one recorded span adds to a call, measured on a no-op."""
        ns = types.SimpleNamespace(f=lambda: None)
        plain = ns.f
        t0 = perf_counter()
        for _ in range(calls):
            plain()
        bare = perf_counter() - t0
        probe = Tracer()
        probe.patch(ns, "f", "calibrate.f")
        t0 = perf_counter()
        for _ in range(calls):
            ns.f()
        return max(perf_counter() - t0 - bare, 0.0) / calls

    def named(self, name: str) -> list[Span]:
        return [sp for sp in self.spans if sp.name == name]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([sp.as_dict() for sp in self.spans], f)
            f.write("\n")
