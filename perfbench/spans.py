"""In-memory span tracing installed around the package's public functions.

A traced run wraps selected functions and methods of each layer
(``repro.data``, ``repro.core``, ``repro.nn``, ...) with a timer that
records one span per call: name, start, end, the span that caused it
(the innermost open span on the same thread), the thread, and the
request id the benchmark set for that thread, if any.  Spans stay in
memory and are written out once, when the run ends.

The wrappers live here, in the benchmark, not in the package: the
package is measured as it is.  :func:`install` returns an undo handle
that restores every original attribute.

A span's *self time* is its duration minus the part of its interval
covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Target",
    "Tracer",
    "covered",
    "install",
    "self_times",
]


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int
    request: Optional[int]
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module`` + dotted ``attr`` gets span ``name``.

    ``measure(args, result)`` optionally returns attributes for the
    span (bytes touched, rows, mode).  ``generator`` wraps a generator
    function so each item it yields gets a span of its own.
    """

    module: str
    attr: str
    name: str
    measure: Optional[Callable] = None
    generator: bool = False


class Tracer:
    """Collects spans from wrapped calls; ``enabled`` toggles recording."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        #: interleave traced and untraced items of wrapped generators
        self.alternate = False
        #: per generator target: ``(start, end, traced)`` of every ``next``
        self.marks: Dict[str, List[Tuple[float, float, bool]]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread context ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Optional[int]) -> None:
        """Tag spans opened on this thread with ``request`` (None clears)."""
        self._local.request = request

    # -- recording -----------------------------------------------------------
    def call(self, name: str, fn: Callable, args, kwargs, measure=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = measure(args, result) if measure is not None else None
            self.spans.append(
                Span(sid, parent, name, start, end, threading.get_ident(),
                     getattr(self._local, "request", None), attrs)
            )

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.call(name, fn, args, kwargs)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        if target.generator:
            return self._wrap_generator(fn, target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(target.name, fn, args, kwargs, target.measure)

        return traced

    def _wrap_generator(self, fn: Callable, target: Target) -> Callable:
        """Span each item's production; also clock it in ``marks``.

        ``marks[name]`` gets ``(start, end, traced)`` per ``next`` call
        whether or not recording is on, so the gaps between items (the
        consumer's work) are measured in untraced stretches too.  With
        ``alternate`` set, recording is switched on for the consumer's
        work after even items and off after odd ones, which interleaves
        traced and untraced steps within one run.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            marks = tracer.marks.setdefault(target.name, [])
            index = 0
            while True:
                box = []

                def advance():
                    try:
                        box.append(next(iterator))
                    except StopIteration:
                        return False
                    return True

                start = time.perf_counter()
                tracer.call(target.name, advance, (), {}, _mark_end)
                marks.append((start, time.perf_counter(), tracer.enabled))
                if not box:
                    if tracer.alternate:
                        tracer.enabled = True
                    return
                if tracer.alternate:
                    tracer.enabled = index % 2 == 0
                index += 1
                yield box[0]

        return traced

    # -- output ----------------------------------------------------------------
    def dump(self, path: Path, header: dict) -> Path:
        """Write the header and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.parent, s.name, s.start, s.end,
                                     s.thread, s.request, s.attrs]) + "\n")
        return path


def _mark_end(args, produced) -> Optional[dict]:
    return None if produced else {"end": True}


def _resolve(target: Target) -> Tuple[object, str]:
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer, targets: Iterable[Target]) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            owner, leaf = _resolve(target)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            undo.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(original, target))
    except BaseException:
        _restore(undo)
        raise
    return functools.partial(_restore, undo)


def _restore(undo: List[Tuple[object, str, object]]) -> None:
    for owner, leaf, original in reversed(undo):
        setattr(owner, leaf, original)
    undo.clear()


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }
