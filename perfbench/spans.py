"""Span recording for the traced benchmark mode.

Spans are recorded from the benchmark's own files: :meth:`SpanRecorder.
install` wraps public functions and methods of the router's modules
(the layer boundaries) and records, for every call made while
``recording`` is on, its name, start, end, parent span and thread.
Spans stay in memory; :meth:`SpanRecorder.write_chrome_trace` writes
them once, as Chrome trace-event JSON that Perfetto opens directly.

A parent is the innermost open span *of the same thread*, so self time
(duration minus the time covered by child spans) is computed within
each thread: worker-thread spans of the ``threaded`` policy are roots
of their own thread, and the main thread's ``sched.run`` self time is
dispatch plus waiting for the workers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


def _targets():
    """(span name, owner, attribute) of every wrapped layer boundary."""
    from repro.core.router import route_design
    from repro.eval.metrics import RoutingMetrics
    from repro.grid.cost import CostQuery
    from repro.grid.route import Route
    from repro.maze.ripup import find_violating_nets
    from repro.maze.router import MazeRouter
    from repro.netlist.generator import generate_design
    from repro.pattern.batch import BatchPatternRouter
    from repro.pattern.commit import reconstruct_route
    from repro.sched.pipeline import StageRunner
    from repro.session.cache import demand_signature
    from repro.tree.steiner import build_steiner_tree

    return [
        ("core.route_design", route_design, None),
        ("netlist.generate_design", generate_design, None),
        ("tree.build_steiner_tree", build_steiner_tree, None),
        ("sched.schedule", StageRunner, "schedule"),
        ("sched.run", StageRunner, "run"),
        ("pattern.route_batch", BatchPatternRouter, "route_batch"),
        ("pattern.reconstruct_route", reconstruct_route, None),
        ("grid.cost_rebuild", CostQuery, "rebuild"),
        # Route.uncommit calls commit, so this covers both.
        ("grid.commit", Route, "commit"),
        ("maze.route_net", MazeRouter, "route_net"),
        ("maze.find_violating_nets", find_violating_nets, None),
        ("session.demand_signature", demand_signature, None),
        ("eval.measure", RoutingMetrics, "measure"),
    ]


class SpanRecorder:
    """Records spans of wrapped router calls while ``recording`` is on."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span (when recording is on)."""
        return _SpanScope(self, name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            with _SpanScope(self, name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; functions are replaced in every ``repro``
        module that imported them by name."""
        for name, owner, attr in _targets():
            if attr is None:
                original = owner
                wrapped = self._wrap(name, original)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
            else:
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------ #
    # Aggregation and export
    # ------------------------------------------------------------------ #
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, summed ``total_s`` and ``self_s``."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            entry = out[s.name]
            entry["count"] += 1
            entry["total_s"] += s.end - s.start
            entry["self_s"] += s.end - s.start - child_time[s.sid]
        return dict(out)

    def write_chrome_trace(self, path) -> None:
        """Write all spans as Chrome trace-event JSON (complete events)."""
        origin = min((s.start for s in self.spans), default=0.0)
        tids = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.thread, len(tids) + 1)
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"id": s.sid, "parent": s.parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _SpanScope:
    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self):
        stack = self.rec._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.rec._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.rec._stack().pop()
        if self.rec.recording:
            self.rec.spans.append(Span(
                self.sid, self.name, self.start, end, self.parent,
                threading.get_ident(),
            ))
