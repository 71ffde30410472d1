"""An in-memory span recorder and the wrappers that feed it.

The traced run replaces the attributes that callers look up (a module
function, a class method) with wrappers that record one span per call:
name, start, end, the span that was open when it started, and the job
or request it belongs to.  Counts computed from the call's arguments
are added to the recorder at the same boundary.  Nothing is written
until the run ends, when :meth:`SpanRecorder.chrome_trace` renders the
spans in Chrome trace format.

Each thread keeps its own stack of open spans, so spans recorded on a
service's job threads nest correctly beside those of its event loop.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence


class SpanRecorder:
    """Spans and computed counts, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, job: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = self.spans[parent]["job"]
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "job": job, "pid": self.pid,
                "tid": threading.get_ident()}
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() != index:
            pass

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def closed(self) -> List[dict]:
        return [s for s in self.spans if s["end"] is not None]

    def chrome_trace(self, extra_spans: Sequence[dict]) -> dict:
        """Every closed span, and those of ``extra_spans`` (recorded in
        another process), as a Chrome "X" event, one process per OS pid
        and one track per thread, timestamps relative to the first
        span."""
        spans = self.closed() + [s for s in extra_spans
                                 if s.get("end") is not None]
        if not spans:
            return {"traceEvents": []}
        t0 = min(s["start"] for s in spans)
        pids = {pid: k + 1 for k, pid in
                enumerate(sorted({s["pid"] for s in spans}))}
        tids: Dict[tuple, int] = {}
        events = []
        for pid, label in pids.items():
            events.append({"name": "process_name", "ph": "M", "pid": label,
                           "tid": 0, "args": {"name": f"os pid {pid}"}})
        for s in spans:
            tid = tids.setdefault((s["pid"], s["tid"]), len(tids) + 1)
            args = {"parent": s["parent"]}
            if s["job"] is not None:
                args["job"] = s["job"]
            events.append({
                "name": s["name"], "ph": "X", "pid": pids[s["pid"]],
                "tid": tid, "ts": round((s["start"] - t0) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def window(spans: Sequence[dict], lo: int, hi: int) -> List[dict]:
    """``spans[lo:hi]`` with parent indices rebased onto the slice; a
    parent opened before ``lo`` becomes None."""
    out = []
    for s in spans[lo:hi]:
        parent = s["parent"]
        out.append(dict(s, parent=(parent - lo if parent is not None
                                   and parent >= lo else None)))
    return out


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Seconds of each span name not covered by that span's children,
    summed over all spans of the name.  ``parent`` indexes into the same
    sequence; children are clipped to their parent's interval and
    overlapping children are counted once."""
    spans = list(spans)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        if s["end"] is not None and s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s["end"] is None:
            continue
        lo, hi = s["start"], s["end"]
        covered, cursor = 0.0, lo
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["name"]] += max(0.0, (hi - lo) - covered)
    return dict(out)


def wall_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Inclusive seconds per span name."""
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s["end"] is not None:
            out[s["name"]] += s["end"] - s["start"]
    return dict(out)


def call_counts(spans: Iterable[dict]) -> Dict[str, int]:
    out: Dict[str, int] = defaultdict(int)
    for s in spans:
        out[s["name"]] += 1
    return dict(out)


class Patcher:
    """Replaces attributes with recording wrappers and puts them back."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[tuple] = []

    def span(self, owner, attr: str, name: str,
             counts: Optional[Callable[..., Dict[str, float]]] = None,
             job: Optional[Callable[..., Optional[str]]] = None) -> None:
        """Wrap ``owner.attr`` (a function or a method defined on a
        class) so that each call records a span called ``name``.
        ``counts(result, *args, **kwargs)`` returns computed counts to
        add after the call; ``job(*args, **kwargs)`` names the job the
        span starts."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        rec = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = rec.begin(name,
                              job(*args, **kwargs) if job else None)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end(index)
            if counts is not None:
                for key, value in counts(result, *args, **kwargs).items():
                    rec.count(key, value)
            return result

        self._swap(owner, attr, original, wrapper)

    def counter(self, owner, attr: str,
                counts: Callable[..., Dict[str, float]]) -> None:
        """Wrap ``owner.attr`` to add computed counts only, no span."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        rec = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for key, value in counts(*args, **kwargs).items():
                rec.count(key, value)
            return original(*args, **kwargs)

        self._swap(owner, attr, original, wrapper)

    def _swap(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
