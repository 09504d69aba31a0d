"""Spans recorded around the program's layer functions, from outside.

The traced run replaces a fixed list of public functions and methods of
the ``repro`` layer modules with thin wrappers (:func:`install`) and puts
the originals back afterwards (:meth:`Installation.remove`).  No file of
the program changes, and an untraced run executes the program's own
function objects.

Each wrapped call becomes a span ``(name, start, end, parent)`` kept in
memory by a :class:`Recorder`.  Allocator calls are too frequent for a
span each: they are *leaf* targets, whose time is summed into the
enclosing span instead.  A span's self time is its duration minus the
part of it that child spans (and leaf calls) cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time


class SpanRecord:
    """One recorded call: ``parent`` is an index into the span list."""

    __slots__ = ("name", "start", "end", "parent", "leaf_s", "pid")

    def __init__(self, name, start, parent, pid=None):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        #: seconds of leaf calls made directly inside this span
        self.leaf_s = 0.0
        #: set on spans that ran in another process
        self.pid = pid


class Recorder:
    """Keeps spans and per-target call tallies in memory.

    Only calls on the thread that created the recorder are recorded;
    other threads run the wrapped functions untouched.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans = []
        #: spans that ran in other processes, kept apart so that the
        #: parent indices of ``spans`` stay valid
        self.remote = []
        self.tallies = {}  # name -> {"calls", "seconds", "bytes", ...}
        self._stack = []
        self._thread = threading.get_ident()

    def on_this_thread(self):
        return threading.get_ident() == self._thread

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(SpanRecord(name, self.clock(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span %r closed out of order" % (
                self.spans[index].name,))

    def leaf(self, seconds):
        if self._stack:
            self.spans[self._stack[-1]].leaf_s += seconds

    def tally(self, name, **amounts):
        entry = self.tallies.setdefault(name, {})
        for key, value in amounts.items():
            entry[key] = entry.get(key, 0) + value

    def add_remote(self, name, start, end, pid):
        """A span that ran in another process (no parent here)."""
        record = SpanRecord(name, start, None, pid=pid)
        record.end = end
        self.remote.append(record)


class Target:
    """One wrapped callable: ``where`` is ``"module:Name"`` or
    ``"module:Class.method"``.

    ``leaf`` targets record no span of their own.  ``observe(recorder,
    args, result)`` may book extra tallies (bytes, rows) from the call's
    arguments and result.
    """

    def __init__(self, name, where, leaf=False, observe=None):
        self.name = name
        self.where = where
        self.leaf = leaf
        self.observe = observe


def _make_wrapper(recorder, target, original):
    name = target.name
    leaf = target.leaf
    observe = target.observe
    clock = recorder.clock

    def steps(generator):
        # A generator's work happens in next(), not in the call that
        # built it: each step is its own span.
        while True:
            index = recorder.open(name)
            started = clock()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                recorder.close(index)
                recorder.tally(name, seconds=clock() - started)
            yield item

    def wrapper(*args, **kwargs):
        if not recorder.on_this_thread():
            return original(*args, **kwargs)
        index = None if leaf else recorder.open(name)
        started = clock()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = clock() - started
            if leaf:
                recorder.leaf(elapsed)
            else:
                recorder.close(index)
            recorder.tally(name, calls=1, seconds=elapsed)
        if observe is not None:
            observe(recorder, args, result)
        if inspect.isgenerator(result):
            return steps(result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__qualname__ = getattr(original, "__qualname__", name)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


def _resolve(where):
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Installation:
    """The wrappers one :func:`install` put in place."""

    def __init__(self):
        #: (namespace, attribute, original value) for every rebinding
        self.sites = []

    def remove(self):
        """Restore every original binding (idempotent)."""
        while self.sites:
            owner, attribute, original = self.sites.pop()
            setattr(owner, attribute, original)


def install(recorder, targets):
    """Wrap every target; returns the :class:`Installation` to remove.

    A module-level function is rebound in its own module *and* in every
    loaded ``repro`` module that imported it by name, so callers that
    did ``from module import function`` see the wrapper too.  A method
    is replaced on the class that defines it (a classmethod keeps its
    descriptor type).
    """
    installation = Installation()
    try:
        for target in targets:
            owner, attribute = _resolve(target.where)
            if inspect.isclass(owner):
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        _make_wrapper(recorder, target, raw.__func__)
                    )
                else:
                    wrapped = _make_wrapper(recorder, target, raw)
                installation.sites.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(owner, attribute)
            wrapped = _make_wrapper(recorder, target, original)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if not (module_name == "repro"
                        or module_name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        installation.sites.append((module, key, value))
                        setattr(module, key, wrapped)
    except BaseException:
        installation.remove()
        raise
    return installation


# -- the span account ----------------------------------------------------------


def covered(start, end, intervals):
    """Seconds of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals
        if min(end, e) > max(start, s)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start, end, child_intervals, leaf_s=0.0):
    """A span's duration minus what its children (and leaf calls) cover."""
    return max(0.0, (end - start) - covered(start, end, child_intervals)
               - leaf_s)


def self_times(spans):
    """``{name: seconds}`` of self time, summed per span name."""
    children = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(
                (record.start, record.end)
            )
    totals = {}
    for index, record in enumerate(spans):
        if record.end is None:
            continue
        seconds = self_time(record.start, record.end,
                            children.get(index, ()), record.leaf_s)
        totals[record.name] = totals.get(record.name, 0.0) + seconds
    return totals


def to_chrome_trace(spans, remote=()):
    """Spans as a Chrome Trace Event payload (one lane per process).

    Local ``spans`` nest on the coordinator lane (pid 0); ``remote``
    spans, which ran in other processes, get a lane per pid.
    """
    spans = list(spans) + list(remote)
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(record.start for record in spans)
    children = {}
    roots = []
    for index, record in enumerate(spans):
        if record.end is None:
            continue
        if record.parent is None:
            roots.append(index)
        else:
            children.setdefault(record.parent, []).append(index)
    events = []

    def emit(index):
        record = spans[index]
        pid = record.pid or 0
        events.append({"ph": "B", "name": record.name, "pid": pid,
                       "tid": 1, "ts": (record.start - t0) * 1e6})
        for child in children.get(index, ()):
            emit(child)
        events.append({"ph": "E", "name": record.name, "pid": pid,
                       "tid": 1, "ts": (record.end - t0) * 1e6})

    for index in roots:
        emit(index)
    # Stable: on equal timestamps a parent's B stays before its child's
    # B, and a child's E before its parent's E.
    events.sort(key=lambda event: event["ts"])
    lanes = sorted({event["pid"] for event in events})
    meta = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 1,
             "args": {"name": "coordinator" if pid == 0
                      else "worker pid %d" % pid}} for pid in lanes]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}
