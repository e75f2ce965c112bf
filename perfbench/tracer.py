"""Outside-in tracer: timing wrappers the benchmark installs around layers.

The program under test is never edited.  For a traced run the benchmark
replaces selected public callables with thin wrappers that push a frame on
a per-thread stack, time the call and charge each layer its *self* time:
its duration minus the time of wrapped calls made beneath it on the same
thread.  Callables that return generators are timed per ``next()``, so a
lazily consumed stream charges its work to the layer that produced it and
not to the consumer.

Names are patched where callers look them up: methods on their class,
plain functions in the namespace of the module that imported them.
Spans (id, name, start, end, parent, thread, request id) stay in memory
and are written once, by :meth:`Tracer.dump`.

Three span kinds are distinguished:

* *layers* — the wrapped callables of the program;
* *roots* — the benchmark's own unit of work on a thread (one operation,
  one campaign block on a pool worker, one served request); a root's self
  time is the time no wrapped layer accounts for (``unattributed_s``);
* *waits* — a thread blocked on other threads (the campaign coordinator
  draining its worker pool); counted apart, as neither work nor gap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Tracer"]


class _Frame:
    __slots__ = ("index", "name", "kind", "start", "child", "parent", "rid")

    def __init__(self, index, name, kind, parent, rid):
        self.index = index
        self.name = name
        self.kind = kind
        self.parent = parent
        self.rid = rid
        self.child = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Per-thread span stacks plus per-name call counts and self times.

    ``install(targets)`` patches; ``uninstall()`` restores every original.
    A target is ``(layer_name, owner, attribute, mode)``: ``mode`` is
    ``"call"`` to time each call, or ``"iter"`` when the callable returns
    an iterator whose every ``next()`` is timed instead.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.kinds: dict[str, str] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.active = True

    # ------------------------------------------------------------------ #
    # Stack
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name, kind, rid=None, parent=None) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1].index
            rid = stack[-1].rid if rid is None else rid
        frame = _Frame(next(self._ids), name, kind, parent, rid)
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        self.spans.append((
            frame.index, frame.name, frame.start, end, frame.parent,
            threading.get_ident(), frame.rid,
        ))
        with self._lock:
            self.calls[frame.name] += 1
            self.self_s[frame.name] += duration - frame.child
            self.kinds[frame.name] = frame.kind

    @contextlib.contextmanager
    def span(self, name, kind="root", rid=None, parent=None):
        """A benchmark-owned span: a root (unit of work) or a wait."""
        if not self.active:
            yield
            return
        frame = self._push(name, kind, rid=rid, parent=parent)
        try:
            yield
        finally:
            self._pop(frame)

    def rooted(self, fn, name):
        """Wrap ``fn`` so each call, on whatever thread, is a root span.

        The root records the wrapping thread's open span as its parent, so
        a pool worker's spans link back to the operation that caused them.
        """
        stack = self._stack()
        parent = stack[-1].index if stack else None

        @functools.wraps(fn)
        def run(*args, **kwargs):
            with self.span(name, "root", parent=parent):
                return fn(*args, **kwargs)

        return run

    def timed_iter(self, iterator, name, kind="layer"):
        """Yield from ``iterator``, timing each ``next()`` as one span."""
        iterator = iter(iterator)
        while True:
            frame = self._push(name, kind)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._pop(frame)
            yield item

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, name, fn, mode):
        if mode == "iter":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                return self.timed_iter(fn(*args, **kwargs), name)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                frame = self._push(name, "layer")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._pop(frame)
        return wrapper

    def replace(self, owner, attribute, value):
        """Set ``owner.attribute`` until :meth:`uninstall`; return the original."""
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, value)
        return original

    def install(self, targets) -> None:
        for name, owner, attribute, mode in targets:
            original = getattr(owner, attribute)
            if isinstance(owner, type) and isinstance(owner.__dict__[attribute], classmethod):
                patched = classmethod(self._wrap(name, original.__func__, mode))
            else:
                patched = self._wrap(name, original, mode)
            self.replace(owner, attribute, patched)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def total(self, kind: str) -> float:
        """Summed self time of every span name of one kind."""
        return sum(s for n, s in self.self_s.items() if self.kinds[n] == kind)

    def dump(self, path: str) -> None:
        """Write every finished span once, as one JSON document."""
        keys = ("id", "name", "start", "end", "parent", "thread", "rid")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
