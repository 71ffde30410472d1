"""Process-wide Counter/Gauge/Histogram metrics registry.

A single module-level :data:`METRICS` registry collects operation counts
(``field.mul_batches``, ``merkle.hashes``, ``ntt.butterflies``, ...),
point-in-time gauges (``process.peak_rss_bytes``), and — since Metrics v2
— latency **histograms** (``prove_seconds``, ``verify_seconds``,
``dispatch_seconds``, per-family phase seconds).  Instrumented code calls
``METRICS.inc`` / ``METRICS.gauge`` / ``METRICS.observe``
unconditionally; when the registry is disabled (the default) each call
returns after one attribute check, so the hot loops stay within noise of
the uninstrumented code.

Histograms use **fixed log-spaced buckets** shared by every instance
(:data:`DEFAULT_LATENCY_BOUNDS`), which makes them mergeable across
processes: a worker-side histogram ships back as a plain dict
(:meth:`Histogram.to_dict`) and adds bucket-wise into the parent's
(:meth:`Histogram.merge`) with no loss — exactly the contract the
OpenMetrics exposition format (:mod:`repro.obs.openmetrics`) requires of
``_bucket``/``_count``/``_sum`` series.

The registry is module state shared by every thread (``repro serve``
runs its jobs on several): writes take one lock, after the ``enabled``
check.  Enable it with :func:`repro.obs.tracing` (which also resets it)
or by setting ``METRICS.enabled`` directly in a ``try/finally``.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]

#: Canonical latency bucket upper bounds (seconds): log-spaced at factor
#: 10^(1/4) ≈ 1.78 from 10 µs to 1000 s.  Fixed — never derived from the
#: data — so histograms recorded by different processes (or different
#: runs) always merge and diff bucket by bucket.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = tuple(
    round(10.0 ** (k / 4.0), 12) for k in range(-20, 13))

#: Structured histogram key: (name, sorted (label, value) pairs).
HistKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def labels_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    """Canonical, hashable form of a label set (sorted items)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """A fixed-bucket distribution with exact count and sum.

    ``bounds`` are strictly increasing upper bucket edges; an implicit
    ``+Inf`` bucket catches overflow, so :attr:`counts` has
    ``len(bounds) + 1`` entries and every observation lands somewhere.
    Bucket membership follows OpenMetrics ``le`` semantics: bucket ``i``
    holds values ``bounds[i-1] < v <= bounds[i]``.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS):
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count: int = 0
        self.sum: float = 0.0

    def observe(self, value: Number) -> None:
        value = float(value)
        if math.isnan(value):
            return  # NaN has no bucket; dropping beats corrupting the sum
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(+Inf, count)``."""
        out, running = [], 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (0 <= q <= 1).

        Returns the upper edge of the bucket containing the q-th
        observation — an upper bound, like Prometheus's
        ``histogram_quantile`` without interpolation.  0.0 when empty.
        """
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            if running >= target:
                return bound
        return math.inf

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s buckets into this histogram (same bounds only)."""
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum

    # -- wire form (worker shipping, JSON snapshots) -----------------------
    def to_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.sum}

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        hist = cls(data["bounds"])
        counts = [int(n) for n in data["counts"]]
        if len(counts) != len(hist.counts):
            raise ValueError("histogram counts length does not match bounds")
        if any(n < 0 for n in counts):
            raise ValueError("histogram counts must be non-negative")
        hist.counts = counts
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        return hist


def render_hist_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Human/JSON-readable key: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named monotonic counters, last-value gauges, and histograms.

    ``inc``/``gauge``/``observe`` are no-ops while ``enabled`` is False —
    that check is the only cost instrumented code pays in normal
    operation; enabled writes serialize on one lock.
    """

    __slots__ = ("enabled", "_lock", "_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}
        self._histograms: Dict[HistKey, Histogram] = {}

    # -- write side (hot path) --------------------------------------------
    def inc(self, name: str, amount: Number = 1) -> None:
        """Add ``amount`` to counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: Number) -> None:
        """Record the latest value of gauge ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: Number, **labels: str) -> None:
        """Record one observation into histogram ``name`` (no-op when
        disabled).  ``labels`` distinguish series under one name, e.g.
        ``observe("phase_seconds", dt, family="merkle")``."""
        if not self.enabled:
            return
        key = (name, labels_key(labels) if labels else ())
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    def merge_histogram(self, name: str,
                        labels: Tuple[Tuple[str, str], ...],
                        data: dict) -> None:
        """Merge a serialized histogram (a worker's) into this registry.

        Follows the same enabled gate as :meth:`inc`, mirroring how
        worker counter deltas merge through
        :meth:`~repro.obs.tracer.Tracer.absorb_worker`.
        """
        if not self.enabled:
            return
        key = (name, tuple((str(k), str(v)) for k, v in labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                self._histograms[key] = Histogram.from_dict(data)
            else:
                hist.merge(Histogram.from_dict(data))

    # -- read side ---------------------------------------------------------
    def counters(self) -> Dict[str, Number]:
        return dict(self._counters)

    def gauges(self) -> Dict[str, Number]:
        return dict(self._gauges)

    def histograms(self) -> Dict[HistKey, Histogram]:
        """Live histogram objects keyed by ``(name, labels)`` (structured
        form; use :func:`render_hist_key` for display keys)."""
        return dict(self._histograms)

    def histogram(self, name: str, **labels: str) -> Optional[Histogram]:
        """One histogram by name and labels, or None if never observed."""
        return self._histograms.get(
            (name, labels_key(labels) if labels else ()))

    def snapshot(self) -> Dict[str, dict]:
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {render_hist_key(name, labels): hist.to_dict()
                           for (name, labels), hist
                           in self._histograms.items()},
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry every instrumented kernel reports to.
METRICS = MetricsRegistry()
# A worker forked while another thread held the lock would inherit it
# held forever; the child starts with a fresh one.
os.register_at_fork(
    after_in_child=lambda: setattr(METRICS, "_lock", threading.Lock()))


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    Uses :func:`resource.getrusage`; Linux reports ``ru_maxrss`` in KiB,
    macOS in bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(ru)
    return int(ru) * 1024
