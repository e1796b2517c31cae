"""In-memory span recorder and outside-in function wrapping.

The traced benchmark run replaces functions of an already imported
package with wrappers that record one span per call: a name, start and
end times, the span that caused it, and counts taken at the same
boundary.  Nothing inside the package changes, and every patch is undone
when the traced block ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Children opened by worker threads may overlap
each other, so the covered part is the length of their union.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: Counter = field(default_factory=Counter)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one traced block.

    A span's parent is the innermost open span of the calling thread.  A
    span opened by a thread with nothing open (a worker of a thread pool)
    is parented to the current root span instead.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.root: Span | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            parent = self.root.sid if self.root is not None else None
        span = Span(next(self._ids), name, parent, time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root_span(self, name: str):
        span = self.open(name)
        self.root = span
        try:
            yield span
        finally:
            self.close(span)
            self.root = None


def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is not None and start <= cur_end:
            cur_end = max(cur_end, end)
            continue
        if cur_end is not None:
            total += cur_end - cur_start
        cur_start, cur_end = start, end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span's own interval)."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        clipped = [(max(c.start, sp.start), min(c.end, sp.end))
                   for c in children[sp.sid]]
        out[sp.sid] = sp.duration - covered_length(
            (s, e) for s, e in clipped if e > s)
    return out


def concurrent_overlap(spans) -> float:
    """Time counted more than once because sibling spans ran at the same
    time (worker threads): summed child durations minus their union."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return sum(sum(e - s for s, e in kids) - covered_length(kids)
               for kids in children.values())


@dataclass
class NameTotals:
    calls: int = 0
    s: float = 0.0          # inclusive, outermost spans of the name only
    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


def summarize(spans) -> dict:
    """Per span name: call count, inclusive and self seconds, and summed
    counts.  Inclusive time counts a span only when no ancestor has the
    same name, so recursion is not counted twice."""
    by_id = {sp.sid: sp for sp in spans}
    selfs = self_times(spans)
    out = defaultdict(NameTotals)
    for sp in spans:
        row = out[sp.name]
        row.calls += 1
        row.self_s += selfs[sp.sid]
        row.counts.update(sp.counts)
        up = sp.parent
        while up is not None and by_id[up].name != sp.name:
            up = by_id[up].parent
        if up is None:
            row.s += sp.duration
    return out


@dataclass(frozen=True)
class Target:
    """A function to trace, named by its defining module and qualified name
    (``"basis_matrix"`` or ``"MotherWavelet.sinc"``).

    ``count``, when given, receives the call's bound arguments before the
    call and returns a function that maps the result to a dict of counts.
    A hook that no longer fits the function raises, which fails the
    command it ran in rather than letting its counts read zero.
    """

    module: str
    qualname: str
    name: str
    count: Callable | None = None


def _wrap(fn, name: str, recorder: Recorder, count):
    sig = inspect.signature(fn) if count is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        finish = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            finish = count(bound.arguments)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if finish is not None:
            span.counts.update(finish(result))
        return result

    return wrapper


def _package_modules(module_name: str):
    package = module_name.split(".")[0]
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def _patch(target: Target, recorder: Recorder) -> list:
    """Install one wrapper; returns ``(owner, attribute, original)``
    triples to undo it, none for a target that no longer exists."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return []
    owner_name, _, attr = target.qualname.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            return []
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(_wrap(raw.__func__, target.name, recorder,
                                  target.count))
        else:
            new = _wrap(raw, target.name, recorder, target.count)
        setattr(cls, attr, new)
        return [(cls, attr, raw)]
    original = getattr(module, attr, None)
    if original is None:
        return []
    wrapper = _wrap(original, target.name, recorder, target.count)
    undo = []
    # rebind the name in every module of the package that imported it
    for mod in _package_modules(target.module):
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))
    return undo


@contextlib.contextmanager
def traced(recorder: Recorder, targets):
    """Wrap every target for the duration of the block.  Yields the
    ``module:qualname`` of each target the package does not have, so the
    caller can report the metrics that read zero because of it."""
    undo = []
    unresolved = []
    try:
        for target in targets:
            patched = _patch(target, recorder)
            if not patched:
                unresolved.append(f"{target.module}:{target.qualname}")
            undo += patched
        yield unresolved
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
