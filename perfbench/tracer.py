"""In-memory span tracer used by the benchmark's traced run.

The tracer patches methods of the program's classes from the outside
(nothing under ``src/`` knows about it) and records one span per call:
name, start, end, parent.  From the spans it keeps, per span name, the
call count, the inclusive time and the *self* time -- the span's duration
minus the time covered by its child spans.  Self times therefore
partition every root span exactly, so summed over all names they equal
the time spent inside root spans; the benchmark reports whatever else the
pass spent as ``unattributed_s``.

The current span lives in a :class:`contextvars.ContextVar`, so spans
nest correctly inside each asyncio task as well as in plain calls.  Spans
whose parent lives in another task or thread are opened with an explicit
``parent`` (see :meth:`Tracer.open`).

Very hot, very small methods are wrapped with :meth:`Tracer.counted`
instead: a call counter without a span, because timing them would swamp
the run.

Recorded spans (up to ``RECORD_LIMIT``, a prefix of the timeline) export
as Chrome trace-event JSON (:meth:`Tracer.chrome_trace`), which Perfetto
and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import time

#: Spans kept for the Chrome trace export; aggregates keep counting past it.
RECORD_LIMIT = 100_000


class Span:
    """One open or closed span; ``child`` accumulates child durations."""

    __slots__ = ("name", "start", "child", "parent", "track", "sid")

    def __init__(self, name, parent, track, sid):
        self.name = name
        self.parent = parent
        self.track = track
        self.sid = sid
        self.child = 0.0
        self.start = 0.0


def layer_of(name):
    """Layer of a span or counter name: its first dotted component."""
    return name.split(".", 1)[0]


def component_sum(table, component):
    """Sum of ``table`` (self_s, total_s or calls) over a component's spans:
    the names ``<component>:<method>``."""
    prefix = component + ":"
    return sum(value for name, value in table.items()
               if name.startswith(prefix))


def resolve(module, qualname):
    """``(owner, attribute)`` for ``module:Class.attr`` or ``module:func``."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span and call-count recorder with reversible method patching."""

    def __init__(self):
        self.recording = True
        self.epoch = time.perf_counter()
        self.current = contextvars.ContextVar("perfbench_span", default=None)
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self.spans = []  # (sid, name, start, end, parent sid, track)
        self._next_sid = 1
        self._patches = []

    # ------------------------------------------------------------ aggregates

    def reset(self):
        """Clear the aggregates (not the recorded spans) between passes."""
        self.self_s = {}
        self.total_s = {}
        self.calls = {}

    # ----------------------------------------------------------------- spans

    def open(self, name, parent=None, track=None):
        """Start a span; ``parent`` defaults to the current span."""
        if parent is None:
            parent = self.current.get()
        if track is None:
            track = parent.track if parent is not None else 0
        sid = 0
        if self.recording:
            sid = self._next_sid
            self._next_sid += 1
        span = Span(name, parent, track, sid)
        span.start = time.perf_counter()
        return span

    def close(self, span, end=None):
        """Finish a span: account self time and charge the parent."""
        if end is None:
            end = time.perf_counter()
        duration = end - span.start
        name = span.name
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - span.child
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = span.parent
        if parent is not None:
            parent.child += duration
        if span.sid:
            self.spans.append((
                span.sid, name, span.start, end,
                parent.sid if parent is not None else 0, span.track,
            ))
            if len(self.spans) >= RECORD_LIMIT:
                self.recording = False

    @contextlib.contextmanager
    def span(self, name, parent=None, track=None):
        """A span around a ``with`` block; it is the current span inside."""
        span = self.open(name, parent, track)
        token = self.current.set(span)
        try:
            yield span
        finally:
            self.current.reset(token)
            self.close(span)

    def spanned(self, name, fn):
        """Wrap a plain function or method so each call is a span.

        Event callbacks are wrapped each time they are scheduled, so this
        inlines :meth:`open` and copies no function metadata.
        """
        current = self.current
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = current.get()
            sid = 0
            if tracer.recording:
                sid = tracer._next_sid
                tracer._next_sid += 1
            span = Span(name, parent, parent.track if parent else 0, sid)
            token = current.set(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                tracer.close(span, end)

        return traced

    def counted(self, name, fn):
        """Wrap ``fn`` with a bare call counter (no span, no timing)."""
        tracer = self

        def counted(*args, **kwargs):
            calls = tracer.calls
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    # -------------------------------------------------------------- patching

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr``; :meth:`restore` puts the original back."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, module, qualname, name):
        owner, attr = resolve(module, qualname)
        original = owner.__dict__[attr]
        self.patch(owner, attr, functools.update_wrapper(
            self.spanned(name, original), original
        ))

    def patch_count(self, module, qualname, name):
        owner, attr = resolve(module, qualname)
        self.patch(owner, attr, self.counted(name, owner.__dict__[attr]))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- export

    def chrome_trace(self, process_name):
        """The recorded spans as a Chrome trace-event JSON object."""
        names = {sid: name for sid, name, *_ in self.spans}
        events = [{
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": process_name},
        }]
        for sid, name, start, end, parent, track in sorted(
            self.spans, key=lambda span: span[2]
        ):
            events.append({
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "pid": 1,
                "tid": track,
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": names.get(parent)},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans_recorded": len(self.spans),
                "record_limit": RECORD_LIMIT,
                "truncated": not self.recording,
            },
        }
