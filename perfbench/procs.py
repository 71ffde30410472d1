"""Process probes: resident memory, child processes, shared-memory
segments and the environment record.

Peak memory is read from ``VmHWM`` in ``/proc/<pid>/status`` after
resetting it through ``/proc/<pid>/clear_refs``, so a peak covers only
the timed section and not the set-up that preceded it.
"""

from __future__ import annotations

import os
import platform
import signal
import time
from typing import Dict, Iterable, List

MB = 1024 * 1024
SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro"
#: How long a leftover child gets to exit after SIGTERM.
REAP_TIMEOUT_S = 5.0


def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def rss_bytes(pid: int) -> int:
    return _status_kb(pid, "VmRSS") * 1024


def child_pids() -> List[int]:
    """Direct children of this process."""
    out: List[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tids = os.listdir(task_dir)
    except FileNotFoundError:
        return out
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(out))


class PeakMemory:
    """Peak resident memory of a set of processes over a section, either
    above what each held when the section began or in total."""

    def __init__(self, pids: Iterable[int]):
        self.pids = sorted(set(pids))
        self.base: Dict[int, int] = {}

    def start(self) -> "PeakMemory":
        for pid in self.pids:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
            self.base[pid] = rss_bytes(pid)
        return self

    def stop_mb(self, above_start: bool = True) -> float:
        total = 0
        for pid in self.pids:
            try:
                peak = _status_kb(pid, "VmHWM") * 1024
            except FileNotFoundError:
                continue  # the process ended; its peak is lost
            total += max(0, peak - self.base[pid]) if above_start else peak
        return total / MB


def shm_segments() -> List[str]:
    try:
        return sorted(n for n in os.listdir(SHM_DIR)
                      if n.startswith(SHM_PREFIX))
    except FileNotFoundError:
        return []


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts on the first
    shared-memory segment, and wait for it.  It would otherwise outlive
    the workload until this process exits."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def reap_children() -> List[int]:
    """Terminate any child still running, wait for it and return the
    pids found.  A clean workload leaves none."""
    found = child_pids()
    for pid in found:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + REAP_TIMEOUT_S
    for pid in found:
        while time.monotonic() < deadline:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            time.sleep(0.05)
        else:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    return found


def environment(seed: int) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}
