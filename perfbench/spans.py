"""Span recording around the program's public layer functions.

The benchmark never edits the program: it times each layer from outside
by replacing a layer's public function with a wrapper that opens a span,
calls the original and closes the span.  :func:`install` does the
replacement from a table of ``(owner, attribute, span name)`` entries.

A :class:`Recorder` keeps, for every span name, the number of calls, the
total time and the *self* time (the span's duration minus the time its
child spans cover).  One span name is the *root*: each root span is one
unit of work (a sweep item, a fleet chunk, one request served by a
gateway worker), and when it closes the recorder appends one row with
the self time every layer spent inside it.  Rows let the workloads
split layer time by request range (a deterministic prefix, a load phase,
the first and last tenth of a run).  The first ``keep`` raw spans
``(name, start, end, parent index, request id)`` are kept as well;
``run.py`` writes them out when the run ends.

Timestamps are ``time.perf_counter()``; on Linux that is the system-wide
monotonic clock, so spans from the gateway's worker process line up with
the parent's.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Callable, Iterable, Optional

_now = time.perf_counter


class Recorder:
    """In-memory span store with per-layer self-time totals."""

    def __init__(self, root: Optional[str] = None, edges: Iterable[str] = (),
                 keep: int = 20_000):
        self.root = root
        self.edge_names = frozenset(edges)
        self.keep = keep
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list = []
        #: One row per closed root span: (request id, start, end, {name: self s}).
        self.rows: list[tuple] = []
        #: Span name -> [(request id, start, end)] for the *edge* names:
        #: every span of those names, for per-request timelines.
        self.edges: dict[str, list] = {name: [] for name in self.edge_names}
        #: Explicit request id for spans that do not carry one.
        self.request_id: Optional[int] = None
        self._stack: list[list] = []
        self._in_root: dict[str, float] = {}
        self._root_depth = 0

    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            self.spans.append(None)
        if name == self.root:
            self._root_depth += 1
        self._stack.append([name, _now(), 0.0, index])

    def exit(self, request_id: Optional[int] = None) -> float:
        """Close the innermost span; returns its duration in seconds."""
        end = _now()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        own = duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        parent = -1
        if self._stack:
            frame = self._stack[-1]
            frame[2] += duration
            parent = frame[3]
        rid = request_id if request_id is not None else self.request_id
        if index >= 0:
            self.spans[index] = (name, start, end, parent, rid)
        if name in self.edge_names:
            self.edges[name].append((rid, start, end))
        if name == self.root:
            self._root_depth -= 1
            layers = self._in_root
            layers[name] = layers.get(name, 0.0) + own
            self.rows.append((rid, start, end, layers))
            self._in_root = {}
        elif self._root_depth:
            self._in_root[name] = self._in_root.get(name, 0.0) + own
        return duration

    # ------------------------------------------------------------------
    def layer_rows(self, names: Iterable[str]) -> dict[str, float]:
        """Summed self seconds per layer over all root rows."""
        sums = {name: 0.0 for name in names}
        for _, _, _, layers in self.rows:
            for name, value in layers.items():
                if name in sums:
                    sums[name] += value
        return sums


def _wrapper(fn: Callable, recorder: Recorder, name: str,
             request_id: Optional[Callable]) -> Callable:
    if request_id is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            recorder.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.exit()
        return traced

    @functools.wraps(fn)
    def traced_with_id(*args, **kwargs):
        recorder.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.exit(request_id(args, result))
    return traced_with_id


def install(recorder: Recorder, table, saved: list) -> None:
    """Wrap every ``(owner, attribute, span name[, request-id getter])``
    of *table*.  Owners are classes or modules; class and static methods
    keep their kind.  The getter maps ``(args, result)`` to the request
    id the span belongs to.  The originals are appended to *saved* for
    :func:`restore`."""
    for entry in table:
        owner, attr, name = entry[:3]
        request_id = entry[3] if len(entry) > 3 else None
        raw = inspect.getattr_static(owner, attr)
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            fn = _wrapper(raw.__func__, recorder, name, request_id)
            setattr(owner, attr, classmethod(fn))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(
                _wrapper(raw.__func__, recorder, name, request_id)))
        else:
            setattr(owner, attr, _wrapper(raw, recorder, name, request_id))


def install_timer(owner, attr: str, sink: array, saved: list) -> None:
    """Append the duration (seconds) of every call of ``owner.attr`` to
    *sink* — the untraced runs' only probe, for per-call percentiles."""
    fn = inspect.getattr_static(owner, attr)
    saved.append((owner, attr, fn))

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(_now() - start)

    setattr(owner, attr, timed)


def restore(saved: list) -> None:
    """Undo :func:`install` and :func:`install_timer`, newest first."""
    while saved:
        owner, attr, raw = saved.pop()
        setattr(owner, attr, raw)


def new_sink() -> array:
    return array("d")
