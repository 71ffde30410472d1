"""Flight recorder: a bounded ring buffer of structured prover events.

Where the tracer answers "where did *this* run's time go", the flight
recorder answers "what has this *process* been doing" — the last N
proving jobs and every supervision incident (worker restart, dispatch
stall, degradation to serial, retry, spent deadline) in one bounded,
always-on log.  It is the service-grade complement to per-run tracing:
a long-running prover keeps the recorder warm across thousands of jobs
at O(1) memory, and a post-mortem reads the tail instead of re-running.

Two record shapes share the ring:

* :class:`FlightEvent` — one incident: ``kind`` (see
  :data:`EVENT_KINDS`), a sequence number, a wall-clock timestamp, and
  a small ``data`` dict (tagged with the ``job_id`` of the job that
  recorded it, if any).
* :class:`JobReport` — one completed (or failed) prove/verify job,
  recorded as a ``kind="job"`` event whose ``data`` is the report: job
  id, operation, preset, circuit id, worker count, dispatch mode,
  duration, proof size, peak-RSS delta, outcome, and the supervision
  incidents *this job* hit.

A job is a :meth:`FlightRecorder.job_scope` block.  The active scope
lives in a :class:`contextvars.ContextVar`, so concurrent jobs on
different threads each count only their own incidents; an incident is
charged to the innermost scope and to every scope enclosing it (a batch
counts its inner proves' incidents).  The counts live in the scope, not
in the ring, so they stay exact however many records the ring drops.

The recorder is cheap enough to leave on — one small object append per
*job* or *incident*, nothing per kernel call — but it honors a
``disabled`` switch so the bench harness can assert the fully-disabled
configuration too.  Set ``REPRO_FLIGHT_LOG=PATH`` (or
:meth:`FlightRecorder.spool_to`) to append each record as a JSON line,
giving ``repro report`` a cross-process view; the in-memory ring is
otherwise private to the process.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .metrics import peak_rss_bytes

#: Environment variable naming the JSONL spool file (optional).
FLIGHT_LOG_ENV = "REPRO_FLIGHT_LOG"

#: Default ring capacity (events + job reports combined).
DEFAULT_CAPACITY = 512

#: Every kind the recorder emits.  ``job`` wraps a :class:`JobReport`;
#: the rest are supervision incidents from :mod:`repro.parallel`.
EVENT_KINDS = (
    "job",              # one completed/failed prove or verify job
    "worker_restart",   # supervisor rebuilt a broken/hung executor
    "dispatch_stall",   # watchdog fired: nothing completed in the window
    "task_error",       # an in-task exception surfaced from a worker
    "retry",            # failed chunks resubmitted after a fault
    "degradation",      # kernel fell back to the in-process serial path
    "timeout",          # a cooperative deadline expired
    "janitor",          # orphaned shm segments reclaimed
)

#: Incident kinds a job scope counts into its JobReport.
_FAULT_KINDS = ("worker_restart", "dispatch_stall", "task_error", "retry",
                "degradation", "timeout")


@dataclass
class FlightEvent:
    """One ring-buffer record."""

    kind: str
    seq: int
    ts: float                      # wall clock (time.time)
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seq": self.seq, "ts": self.ts,
                "data": dict(self.data)}


@dataclass
class JobReport:
    """Structured telemetry for one proving (or verification) job.

    ``events`` counts the supervision incidents — worker restarts,
    stalls, degradations, retries, timeouts — recorded inside this job's
    :meth:`FlightRecorder.job_scope`, so a report never inherits another
    job's (or another thread's) incidents.
    """

    job_id: str
    op: str                         # "prove" | "prove_many" | "verify"
    preset: str = ""
    circuit_id: str = ""
    workers: int = 1
    dispatch: str = "serial"        # "serial" | "shm"
    jobs: int = 1                   # batch size (1 for single prove)
    duration_s: float = 0.0
    proof_size_bytes: int = 0
    peak_rss_delta_bytes: int = 0
    ok: bool = True
    error: str = ""
    events: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id, "op": self.op, "preset": self.preset,
            "circuit_id": self.circuit_id, "workers": self.workers,
            "dispatch": self.dispatch, "jobs": self.jobs,
            "duration_s": round(self.duration_s, 6),
            "proof_size_bytes": self.proof_size_bytes,
            "peak_rss_delta_bytes": self.peak_rss_delta_bytes,
            "ok": self.ok, "error": self.error,
            "events": dict(self.events),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobReport":
        return cls(**data)


@dataclass
class JobScope:
    """One open job: its id, the report fields the body fills in, the
    incidents charged to it, its start clock and peak-RSS baseline.
    ``report`` is set when the scope exits."""

    job_id: str
    fields: Dict[str, Any]
    parent: Optional["JobScope"]
    events: Dict[str, int] = field(default_factory=dict)
    report: Optional[JobReport] = None
    t0: float = field(default_factory=time.perf_counter)
    rss0: int = field(default_factory=peak_rss_bytes)


#: The innermost job open in the current context (None outside any job).
_SCOPE: ContextVar[Optional[JobScope]] = ContextVar("repro_job_scope",
                                                    default=None)


class FlightRecorder:
    """Bounded, append-only event ring with an optional JSONL spool."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 spool_path: Optional[str] = None):
        self.enabled = True
        self._ring: "deque[FlightEvent]" = deque(maxlen=max(1, capacity))
        # itertools.count steps atomically, so threads never share a seq.
        self._seq = itertools.count()
        self._job_ids = itertools.count(1)
        self.spool_path = spool_path

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def spool_to(self, path: Optional[str]) -> None:
        """Start (or with None, stop) appending records to a JSONL file."""
        self.spool_path = path

    def next_job_id(self) -> str:
        """A process-unique job id: ``<pid>-<n>``."""
        return f"{os.getpid()}-{next(self._job_ids)}"

    # -- write side --------------------------------------------------------
    def record(self, kind: str, **data: Any) -> Optional[FlightEvent]:
        """Append one incident (no-op while disabled), charging it to the
        active job scope and every scope enclosing it."""
        if not self.enabled:
            return None
        scope = _SCOPE.get()
        if scope is not None:
            data.setdefault("job_id", scope.job_id)
            if kind in _FAULT_KINDS:
                while scope is not None:
                    scope.events[kind] = scope.events.get(kind, 0) + 1
                    scope = scope.parent
        event = FlightEvent(kind=kind, seq=next(self._seq), ts=time.time(),
                            data=data)
        self._ring.append(event)
        self._spool(event)
        return event

    def record_job(self, report: JobReport) -> Optional[FlightEvent]:
        """Append one :class:`JobReport` as a ``kind="job"`` event."""
        if not self.enabled:
            return None
        return self.record("job", **report.to_dict())

    @contextmanager
    def job_scope(self, op: str, **fields: Any) -> Iterator[JobScope]:
        """Run the block as one job and record exactly one
        :class:`JobReport` for it on exit, ok or failed.

        ``fields`` (and whatever the block adds to ``scope.fields``) fill
        the report; a non-empty ``error`` field marks it failed.  When the
        block raises, the report names the exception type and is also
        attached to the exception as ``exc.report`` unless an inner job
        already attached its own — how a caller that catches a failed
        job (``prove_many``, the proving service) gets its report.
        """
        scope = JobScope(self.next_job_id(), fields, _SCOPE.get())
        token = _SCOPE.set(scope)
        failure = None
        try:
            yield scope
        except BaseException as exc:
            failure = exc
            fields["error"] = type(exc).__name__
            raise
        finally:
            _SCOPE.reset(token)
            scope.report = JobReport(
                job_id=scope.job_id, op=op,
                duration_s=time.perf_counter() - scope.t0,
                peak_rss_delta_bytes=max(0, peak_rss_bytes() - scope.rss0),
                ok=not fields.get("error"), events=dict(scope.events),
                **fields)
            self.record_job(scope.report)
            if failure is not None and not getattr(failure, "report", None):
                failure.report = scope.report

    def _spool(self, event: FlightEvent) -> None:
        path = self.spool_path
        if path is None:
            return
        try:
            with open(path, "a") as fh:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        except OSError:
            # A broken spool must never take the prover down; the
            # in-memory ring still has the record.
            pass

    # -- read side ---------------------------------------------------------
    def events(self) -> List[FlightEvent]:
        return list(self._ring)

    def last(self, n: int) -> List[FlightEvent]:
        """The most recent ``n`` events, oldest first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def job_reports(self, n: Optional[int] = None) -> List[JobReport]:
        """The last ``n`` job reports (all when ``n`` is None)."""
        reports = [JobReport.from_dict(e.data)
                   for e in self._ring if e.kind == "job"]
        return reports if n is None else reports[-n:]

    def clear(self) -> None:
        self._ring.clear()


def read_spool(path: str, last: Optional[int] = None) -> List[dict]:
    """Parse a JSONL spool file back into event dicts (oldest first).

    Malformed lines (a crash mid-append) are skipped, not fatal.
    """
    events: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "kind" in obj:
                events.append(obj)
    return events if last is None else events[-last:]


def format_events(events: Iterable[dict]) -> str:
    """Human-readable one-line-per-event rendering for ``repro report``."""
    lines = []
    for ev in events:
        ts = time.strftime("%H:%M:%S", time.localtime(ev.get("ts", 0)))
        data = ev.get("data", {})
        if ev.get("kind") == "job":
            faults = data.get("events") or {}
            fault_str = ("" if not faults else " faults=" + ",".join(
                f"{k}:{v}" for k, v in sorted(faults.items())))
            status = "ok" if data.get("ok") else f"FAIL({data.get('error')})"
            lines.append(
                f"{ts} job {data.get('job_id', '?'):<12} "
                f"{data.get('op', '?'):<10} {data.get('circuit_id') or '-':<10}"
                f" preset={data.get('preset') or '-':<10}"
                f" workers={data.get('workers', 1)}"
                f" dispatch={data.get('dispatch', '?'):<6}"
                f" {data.get('duration_s', 0.0):8.3f}s"
                f" proof={data.get('proof_size_bytes', 0):>8}B"
                f" rss+={data.get('peak_rss_delta_bytes', 0):>10}B"
                f" {status}{fault_str}")
        else:
            extras = " ".join(f"{k}={v}" for k, v in sorted(data.items()))
            lines.append(f"{ts} {ev.get('kind', '?'):<16} {extras}")
    return "\n".join(lines)


#: The process-wide flight recorder (module state, like METRICS).
FLIGHT = FlightRecorder(spool_path=os.environ.get(FLIGHT_LOG_ENV) or None)
