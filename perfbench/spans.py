"""Timing spans recorded from outside the library.

A :class:`Tracer` wraps a library function in place (module attribute or
class method) so every call records a span: name, start, end, parent span
and a tag naming the case or request.  Nothing in ``src/`` changes; the
wrappers live only in the process that installed them and are removed by
:meth:`Tracer.restore`.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Clock = Callable[[], float]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: Optional[str]
    index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.index: span.duration - covered((span.start, span.end), children.get(span.index, ()))
        for span in spans
    }


class ModuleProxy:
    """A module stand-in with some attributes replaced.

    Assigned to another module's global (``client.serial = ModuleProxy(...)``)
    it redirects that module's calls only; code inside the real module keeps
    calling the originals.
    """

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self, clock: Clock = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    @property
    def tag(self) -> Optional[str]:
        return getattr(self._local, "tag", None)

    @tag.setter
    def tag(self, value: Optional[str]) -> None:
        self._local.tag = value

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, tag: Optional[str] = None) -> Span:
        """Add a finished span measured elsewhere (another process, say)."""
        with self._lock:
            span = Span(name, start, end, None, tag, len(self.spans))
            self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self.tag, index)
            self.spans.append(span)
        stack.append(index)
        span.start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()

    # ------------------------------------------------------------------ #
    # wrapping library functions in place
    # ------------------------------------------------------------------ #
    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or a plain method) by a
        span-recording wrapper until :meth:`restore`."""
        original = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            return self.call(name, target, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # queries and output
    # ------------------------------------------------------------------ #
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path, extra: Optional[Dict[str, Any]] = None) -> None:
        selfs = self_times(self.spans)
        doc = {
            "spans": [dict(asdict(s), self=selfs[s.index]) for s in self.spans],
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
