"""Open-loop request generation for the service workload.

The schedule — when each request is due, what it asks for, and which
earlier request it depends on — is fixed by the seed before the run
starts.  Requests are then sent on that schedule over a fixed number of
connections, whatever the server does.  Each request is timed from the
moment it was *due*, so when a stalled server keeps every connection
busy, the wait it imposes on later requests is charged to them rather
than silently dropped; how late each request was actually sent is
reported as the generator lag.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

#: Request kinds of the service mix.
COLD, HIT, VERIFY = "cold", "hit", "verify"

#: Connections the generator sends over (one sender thread each).
CONNECTIONS = 2
#: A repeat or verify reuses a cold prove due at least this long before.
MIN_REF_AGE_S = 1.0
#: Cold proves get distinct seeds from here up.
COLD_SEED_BASE = 1 << 20
#: How long a request waits for the reply of the request it reuses.
REF_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Request:
    index: int
    due: float                  # seconds after the run starts
    kind: str                   # COLD | HIT | VERIFY
    circuit: str
    seed: int                   # prove seed (cold and hit)
    ref: Optional[int] = None   # the cold request a hit or verify reuses


@dataclass
class Outcome:
    request: Request
    due: float                  # absolute clock times
    sent: float
    done: float
    ok: bool
    error: str = ""
    result: object = None

    @property
    def latency_s(self) -> float:
        """From when the request was due to when its reply arrived."""
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


def make_schedule(seed: int, seconds: float, rate: float,
                  circuits: Sequence[str],
                  pattern: Sequence[str]) -> List[Request]:
    """About ``rate * seconds`` requests at ``rate`` per second.

    Gaps are the mean gap scaled by a seeded uniform factor in
    [0.5, 1.5).  The first request of each circuit is a cold prove; the
    rest take their kinds from ``pattern``, shuffled block by block, so
    every run offers the same number of each kind.  Each kind cycles
    through ``circuits`` in turn.  A repeat or verify reuses one of the
    last four cold proves of its circuit due at least
    :data:`MIN_REF_AGE_S` earlier (its reply is normally back by then);
    when there is none yet, the request is due :data:`MIN_REF_AGE_S`
    after the latest one.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = random.Random(seed)
    blocks = max(1, round((rate * seconds - len(circuits)) / len(pattern)))
    kinds = [COLD] * len(circuits)
    for _ in range(blocks):
        block = list(pattern)
        rng.shuffle(block)
        kinds.extend(block)
    turn = {COLD: 0, HIT: 0, VERIFY: 0}
    cold_by_circuit: Dict[str, List[int]] = {c: [] for c in circuits}
    out: List[Request] = []
    t = 0.0
    for index, kind in enumerate(kinds):
        t += rng.uniform(0.5, 1.5) / rate
        circuit = circuits[turn[kind] % len(circuits)]
        turn[kind] += 1
        due, ref = t, None
        if kind == COLD:
            cold_by_circuit[circuit].append(index)
            req_seed = COLD_SEED_BASE + rng.randrange(1 << 30)
        else:
            colds = cold_by_circuit[circuit]
            ready = [i for i in colds if out[i].due <= t - MIN_REF_AGE_S]
            ref = rng.choice(ready[-4:]) if ready else colds[-1]
            due = max(t, out[ref].due + MIN_REF_AGE_S)
            req_seed = out[ref].seed
        out.append(Request(index, due, kind, circuit, req_seed, ref))
    return out


def run_open_loop(schedule: Sequence[Request],
                  handler: Callable[[int, Request, object], object]
                  ) -> List[Outcome]:
    """Send ``schedule`` over :data:`CONNECTIONS` sender threads.

    Each thread takes the next request in due order, sleeps until it is
    due, waits for the reply of the request it depends on (if any), then
    calls ``handler(connection, request, ref_result)``; a raised
    exception marks the request failed.  Returns outcomes in schedule
    order.
    """
    start = time.monotonic()
    order = iter(sorted(schedule, key=lambda r: r.due))
    take = threading.Lock()
    done_events = {r.index: threading.Event() for r in schedule}
    outcomes: Dict[int, Outcome] = {}

    def sender(conn: int) -> None:
        while True:
            with take:
                req = next(order, None)
            if req is None:
                return
            due = start + req.due
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            ref_result = None
            if req.ref is not None:
                done_events[req.ref].wait(REF_TIMEOUT_S)
                ref_out = outcomes.get(req.ref)
                ref_result = ref_out.result if ref_out and ref_out.ok \
                    else None
            sent = time.monotonic()
            try:
                if req.ref is not None and ref_result is None:
                    raise RuntimeError(
                        f"request {req.ref} it depends on did not succeed")
                result, ok, error = handler(conn, req, ref_result), True, ""
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result, ok, error = None, False, \
                    f"{type(exc).__name__}: {exc}"
            outcomes[req.index] = Outcome(req, due, sent, time.monotonic(),
                                          ok, error, result)
            done_events[req.index].set()

    threads = [threading.Thread(target=sender, args=(c,), daemon=True)
               for c in range(CONNECTIONS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return [outcomes[r.index] for r in schedule]
