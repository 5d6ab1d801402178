"""In-memory span and counter tracer that wraps the program's callables by name.

Coarse calls (a CLI job, ``ta_optimize``, a refiner, a Kriging fit) become
spans: name, start, end, parent span and job id.  Hot calls (the
``DiscrepancyCache`` methods) become counters, calls and seconds keyed by the
enclosing span, so a TA iteration costs two clock reads rather than a span
object.  Everything stays in memory until the run writes it out.

A target is patched at the name its callers look up, written
``module:attr``, ``module:Class.method`` or ``module:dict[key]``.  A lookup
that does not resolve at the commit under test is recorded in
``Tracer.missing`` and skipped, so the benchmark keeps running across
refactors that rename or delete a callable.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

_LOOKUP = re.compile(r"^([\w.]+):(\w+)(?:\.(\w+)|\[(\w+)\])?$")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Counter:
    calls: int = 0
    seconds: float = 0.0  # every call, inclusive
    outer_seconds: float = 0.0  # calls not nested inside another counted call


@dataclass(frozen=True)
class Target:
    """A callable to wrap: its metric name, ``span`` or ``counter``, and lookups.

    ``record(span, args, kwargs, result)`` copies facts from a span's call
    into ``span.attrs`` (epochs run, likelihood evaluations, ...).
    """

    name: str
    kind: str
    lookups: tuple[str, ...]
    record: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[int | None, str], Counter] = {}
        self.missing: list[str] = []
        self.job: int | None = None
        self._stack: list[Span] = []
        self._counting = 0
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- spans and counters -------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.job, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def _count(self, name: str, seconds: float, outer: bool) -> None:
        key = (self._stack[-1].id if self._stack else None, name)
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = Counter()
        counter.calls += 1
        counter.seconds += seconds
        if outer:
            counter.outer_seconds += seconds

    def wrap(self, target: Target, fn: Callable) -> Callable:
        clock = time.perf_counter
        if target.kind == "counter":
            name = target.name

            def counted(*args, **kwargs):
                self._counting += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds = clock() - t0
                    self._counting -= 1
                    self._count(name, seconds, self._counting == 0)

            return functools.wraps(fn)(counted)

        def spanned(*args, **kwargs):
            span = self.open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if target.record is not None:
                target.record(span, args, kwargs, result)
            return result

        return functools.wraps(fn)(spanned)

    # -- patching -----------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every resolvable lookup; list the others in ``missing``."""
        self.missing = []
        for target in targets:
            for lookup in target.lookups:
                slot = _resolve(lookup)
                if slot is None:
                    self.missing.append(lookup)
                    continue
                owner, key, is_item = slot
                original = owner[key] if is_item else getattr(owner, key)
                wrapped = self.wrap(target, original)
                if is_item:
                    owner[key] = wrapped
                else:
                    setattr(owner, key, wrapped)
                self._patches.append((owner, key, is_item, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, is_item, original = self._patches.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)


def _resolve(lookup: str):
    """(owner, key, is_item) for a lookup string, or None when it is absent."""
    match = _LOOKUP.match(lookup)
    if match is None:
        raise ValueError(f"malformed lookup {lookup!r}")
    module_name, attr, member, item = match.groups()
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if member is None and item is None:
        return (owner, attr, False) if callable(getattr(owner, attr, None)) else None
    container = getattr(owner, attr, None)
    if item is not None:
        if isinstance(container, dict) and callable(container.get(item)):
            return container, item, True
        return None
    if container is not None and callable(getattr(container, member, None)):
        return container, member, False
    return None


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span], counters: dict) -> dict[int, float]:
    """Span id -> duration minus the time its child spans and counters cover."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    counted: dict[int, float] = defaultdict(float)
    for (parent, _name), counter in counters.items():
        if parent is not None:
            counted[parent] += counter.outer_seconds
    return {
        span.id: max(
            0.0,
            span.duration - _covered(children[span.id], span.start, span.end) - counted[span.id],
        )
        for span in spans
    }
