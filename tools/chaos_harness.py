#!/usr/bin/env python
"""Chaos harness: deterministic runtime fault injection for the prover.

Where ``tools/soundness_harness.py`` attacks proof *bytes*, this harness
attacks the proving *machinery*: it arms one :class:`repro.fuzz.faults.
FaultPlan` per scenario — a worker SIGKILLed mid-chunk, a dispatch that
hangs, a shared-memory segment unlinked under a reader, a poisoned
broadcast blob, a generic in-task exception, a spent deadline — builds a
fresh supervised pool inside the armed scope, runs a real proving
workload through it, and asserts the fault contract on every scenario:

* the run **completes with byte-identical proofs** (supervisor retried,
  restarted, or degraded to the serial path), or
* it raises a **typed** :class:`repro.errors.ReproError`, and
* either way **zero** ``repro*`` segments are leaked in ``/dev/shm``, and
* every fired fault left at least one matching event in the
  :data:`repro.obs.FLIGHT` flight recorder (kill -> ``worker_restart``,
  stall -> ``dispatch_stall``, spent deadline -> ``timeout``, ...), so
  no recovery is invisible to an operator reading ``repro report``.

Anything else — wrong bytes, an untyped exception, a leaked segment, or
a plan that never fired — fails the scenario and the process exits
nonzero.  A machine-readable injection matrix (scenario x outcome x
recovery latency) is written to ``BENCH_faults.json``.

Usage::

    PYTHONPATH=src python tools/chaos_harness.py --quick   # CI smoke
    PYTHONPATH=src python tools/chaos_harness.py           # full matrix
                                                           # + 2^16 overhead
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.errors import ProverTimeoutError, ReproError
from repro.fuzz import faults
from repro.obs.events import FLIGHT
from repro.parallel import FaultPolicy, ProverPool
from repro.snark import TEST, prove, prove_many, setup
from repro.workloads import synthetic_r1cs

#: Everything below is deterministic: fixed workload seed, fixed zk-mask
#: seeds, fixed fault injection points.  Two runs produce the same bytes.
WORKLOAD_SEED = 9
PROVE_RNG_SEED = 7
BATCH_BASE_SEED = 42
BATCH_JOBS = 3

#: Supervision policy for chaos pools: fast backoff so the matrix runs in
#: seconds, and a short stall watchdog so the stall scenario converges.
CHAOS_POLICY = FaultPolicy(max_retries=2, backoff_base_s=0.01,
                           backoff_cap_s=0.2, dispatch_timeout_s=1.5)

#: How long an injected stall sleeps — comfortably past the watchdog.
STALL_S = 6.0

#: Flight-recorder visibility contract: every injected fault must leave
#: at least one event of a matching kind in the parent's ring (first
#: entry = the canonical kind; the rest are acceptable recovery paths,
#: e.g. a kill whose retries exhaust ends in ``degradation`` rather than
#: ``worker_restart``).  A recovery the recorder cannot see is an outage
#: an operator cannot see, so invisibility fails the scenario even when
#: the proof bytes came out right.
FAULT_VISIBILITY = {
    "worker_kill": ("worker_restart", "retry", "degradation"),
    "stall": ("dispatch_stall", "worker_restart", "degradation"),
    "shm_unlink": ("degradation", "task_error", "retry", "worker_restart"),
    "poison_pickle": ("degradation", "task_error", "retry"),
    "error": ("task_error", "retry", "degradation"),
    "deadline": ("timeout",),
}


@dataclass
class Scenario:
    """One cell of the injection matrix."""

    name: str
    op: str                       # "prove" | "prove_many" | "deadline"
    kind: Optional[str] = None    # fault kind, None = no plan (control)
    site: str = ""
    workers: int = 2
    quick: bool = False           # include in --quick smoke runs
    expect_fired: bool = True
    extra: Dict[str, float] = field(default_factory=dict)


SCENARIOS: List[Scenario] = [
    # Controls: no fault, must complete identically (and at every worker
    # count the determinism contract names).
    Scenario("control_workers2", "prove", None, quick=True,
             expect_fired=False),
    Scenario("control_workers4", "prove", None, workers=4,
             expect_fired=False),
    # Worker death (uncatchable SIGKILL) at each pooled site.
    Scenario("worker_kill_hash", "prove", "worker_kill", "hash_columns",
             quick=True),
    Scenario("worker_kill_job", "prove_many", "worker_kill", "prove_job",
             quick=True),
    # Hung dispatch: the watchdog must detect and re-drive.
    Scenario("stall_hash", "prove", "stall", "hash_columns", quick=True,
             extra={"stall_s": STALL_S}),
    Scenario("stall_job", "prove_many", "stall", "prove_job",
             extra={"stall_s": STALL_S}),
    # Torn shared memory: segment unlinked from under a worker.
    Scenario("shm_unlink_hash", "prove", "shm_unlink", "hash_columns",
             quick=True),
    # Corrupted broadcast blob (the pickled proving key).
    Scenario("poison_broadcast", "prove_many", "poison_pickle", "broadcast",
             quick=True),
    # Generic in-task exception.
    Scenario("error_hash", "prove", "error", "hash_columns"),
    Scenario("error_job", "prove_many", "error", "prove_job", quick=True),
    # Spent deadline: must raise ProverTimeoutError, never degrade.
    Scenario("deadline_expiry", "deadline", None, quick=True,
             expect_fired=False),
]


def repro_segments() -> List[str]:
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith("repro"))
    except OSError:
        return []


class Workload:
    """The fixed statement every scenario proves, plus serial baselines."""

    def __init__(self, log_size: int = 10):
        self.r1cs, self.public, self.witness = synthetic_r1cs(
            log_size=log_size, seed=WORKLOAD_SEED)
        self.pk, self.vk = setup(self.r1cs, TEST)
        t0 = time.perf_counter()
        self.prove_baseline = prove(
            self.pk, self.public, self.witness,
            rng=np.random.default_rng(PROVE_RNG_SEED)).to_bytes()
        self.prove_baseline_s = time.perf_counter() - t0
        jobs = [(self.public, self.witness)] * BATCH_JOBS
        t0 = time.perf_counter()
        self.batch_baseline = [
            b.to_bytes() for b in prove_many(self.pk, jobs, workers=0,
                                             base_seed=BATCH_BASE_SEED)]
        self.batch_baseline_s = time.perf_counter() - t0

    def run_op(self, op: str, pool: Optional[ProverPool]) -> List[bytes]:
        if op == "prove":
            return [prove(self.pk, self.public, self.witness,
                          rng=np.random.default_rng(PROVE_RNG_SEED),
                          pool=pool).to_bytes()]
        if op == "prove_many":
            jobs = [(self.public, self.witness)] * BATCH_JOBS
            return [b.to_bytes()
                    for b in prove_many(self.pk, jobs, pool=pool,
                                        base_seed=BATCH_BASE_SEED)]
        if op == "deadline":
            prove(self.pk, self.public, self.witness,
                  rng=np.random.default_rng(PROVE_RNG_SEED),
                  pool=pool, timeout_s=1e-4)
            raise AssertionError("a 0.1 ms deadline cannot be met")
        raise ValueError(f"unknown op {op!r}")

    def expected(self, op: str) -> List[bytes]:
        return ([self.prove_baseline] if op == "prove"
                else self.batch_baseline)

    def baseline_s(self, op: str) -> float:
        return (self.prove_baseline_s if op == "prove"
                else self.batch_baseline_s)


def run_scenario(sc: Scenario, wl: Workload) -> dict:
    """Execute one scenario and classify its outcome."""
    before = set(repro_segments())
    seq0 = FLIGHT.seq
    plan = None
    if sc.kind is not None:
        plan = faults.FaultPlan(kind=sc.kind, site=sc.site,
                                token=f"chaos_{sc.name}", **sc.extra)
        faults.install(plan)
    outcome, error = "completed_identical", None
    t0 = time.perf_counter()
    try:
        # The pool is built INSIDE the armed scope so forked workers
        # inherit the plan; auto_chunk=False forces real fan-out even on
        # a single-core CI box.
        pool = ProverPool(workers=sc.workers, auto_chunk=False,
                          fault_policy=CHAOS_POLICY)
        try:
            blobs = wl.run_op(sc.op, pool)
            if blobs != wl.expected(sc.op):
                outcome = "completed_WRONG_BYTES"
        finally:
            pool.close()
    except ProverTimeoutError as exc:
        outcome, error = "timeout_error", f"{type(exc).__name__}: {exc}"
    except ReproError as exc:
        outcome, error = "typed_error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - the harness's whole point
        outcome, error = "UNTYPED_CRASH", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    fired = plan is not None and os.path.exists(plan.claim_path)
    if plan is not None:
        faults.clear()
    leaked = sorted(set(repro_segments()) - before)

    if sc.op == "deadline":
        ok = outcome == "timeout_error"
    else:
        ok = outcome in ("completed_identical", "typed_error")
    if sc.expect_fired and not fired:
        ok = False
        outcome += "+PLAN_NEVER_FIRED"
    if leaked:
        ok = False

    # Fault-visibility contract: the flight recorder must have at least
    # one matching event for every injected (and fired) fault.
    flight = FLIGHT.fault_deltas(seq0)
    visible_kinds = FAULT_VISIBILITY.get(
        sc.kind or ("deadline" if sc.op == "deadline" else ""))
    if visible_kinds is not None and (fired or sc.op == "deadline"):
        if not any(flight.get(k) for k in visible_kinds):
            ok = False
            outcome += "+FAULT_INVISIBLE"
    return {
        "scenario": sc.name,
        "kind": sc.kind or ("deadline" if sc.op == "deadline" else "none"),
        "site": sc.site,
        "op": sc.op,
        "workers": sc.workers,
        "outcome": outcome,
        "error": error,
        "fired": fired,
        "flight_events": flight,
        "leaked_segments": leaked,
        "elapsed_s": round(elapsed, 4),
        "recovery_latency_s": round(max(0.0, elapsed - wl.baseline_s(sc.op)),
                                    4),
        "ok": ok,
    }


def worker_count_sweep(wl: Workload) -> dict:
    """Determinism contract: identical bytes at workers {0, 1, 2, 4}."""
    byts = {}
    for workers in (0, 1, 2, 4):
        pool = (ProverPool(workers=workers, auto_chunk=False)
                if workers > 1 else None)
        try:
            byts[workers] = wl.run_op("prove", pool)[0]
        finally:
            if pool is not None:
                pool.close()
    identical = len(set(byts.values())) == 1
    return {"worker_counts": sorted(byts), "identical": identical,
            "matches_serial_baseline": byts[0] == wl.prove_baseline}


def recovery_overhead(log_size: int = 16) -> dict:
    """Single worker kill at 2^``log_size``: recovery must cost < 2x the
    no-fault parallel prove (the degraded serial rerun dominates)."""
    wl = Workload(log_size=log_size)
    pool = ProverPool(workers=2, auto_chunk=False, fault_policy=CHAOS_POLICY)
    try:
        t0 = time.perf_counter()
        nofault = wl.run_op("prove", pool)[0]
        nofault_s = time.perf_counter() - t0
    finally:
        pool.close()
    plan = faults.FaultPlan(kind="worker_kill", site="hash_columns",
                            token="chaos_overhead")
    with faults.injected(plan):
        pool = ProverPool(workers=2, auto_chunk=False,
                          fault_policy=CHAOS_POLICY)
        try:
            t0 = time.perf_counter()
            faulted = wl.run_op("prove", pool)[0]
            faulted_s = time.perf_counter() - t0
        finally:
            fired = os.path.exists(plan.claim_path)
            pool.close()
    ratio = faulted_s / nofault_s if nofault_s > 0 else float("inf")
    return {
        "log_size": log_size,
        "nofault_prove_s": round(nofault_s, 3),
        "faulted_prove_s": round(faulted_s, 3),
        "overhead_ratio": round(ratio, 3),
        "bytes_identical": faulted == nofault == wl.prove_baseline,
        "fired": fired,
        "ok": fired and ratio < 2.0 and faulted == nofault,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="run the CI smoke subset only (skips the 2^16 "
                         "recovery-overhead measurement)")
    ap.add_argument("--out", default="BENCH_faults.json",
                    help="report path (default BENCH_faults.json)")
    args = ap.parse_args(argv)

    scenarios = [s for s in SCENARIOS if s.quick] if args.quick else SCENARIOS
    t_start = time.perf_counter()
    print("building workload and serial baselines (2^10, TEST preset) ...")
    wl = Workload()
    print(f"  prove baseline {wl.prove_baseline_s:.2f}s | "
          f"batch baseline ({BATCH_JOBS} jobs) {wl.batch_baseline_s:.2f}s")

    results = []
    width = max(len(s.name) for s in scenarios)
    for sc in scenarios:
        res = run_scenario(sc, wl)
        results.append(res)
        status = "ok  " if res["ok"] else "FAIL"
        flight = ",".join(f"{k}:{v}" for k, v in
                          sorted(res["flight_events"].items())) or "-"
        print(f"  [{status}] {sc.name:<{width}}  {res['outcome']:<22} "
              f"fired={str(res['fired']):<5} "
              f"recovery={res['recovery_latency_s']:.2f}s "
              f"flight={flight}"
              + (f"  leaked={res['leaked_segments']}"
                 if res["leaked_segments"] else ""))

    print("worker-count determinism sweep {0, 1, 2, 4} ...")
    sweep = worker_count_sweep(wl)
    print(f"  identical={sweep['identical']} "
          f"matches_serial={sweep['matches_serial_baseline']}")

    overhead = None
    if not args.quick:
        print("recovery overhead: single worker kill at 2^16 ...")
        overhead = recovery_overhead()
        print(f"  no-fault {overhead['nofault_prove_s']:.2f}s | "
              f"faulted {overhead['faulted_prove_s']:.2f}s | "
              f"ratio {overhead['overhead_ratio']:.2f}x "
              f"(budget < 2.0x) | identical={overhead['bytes_identical']}")

    failures = [r["scenario"] for r in results if not r["ok"]]
    ok = (not failures and sweep["identical"]
          and sweep["matches_serial_baseline"]
          and (overhead is None or overhead["ok"]))
    report = {
        "schema": "repro/faults",
        "schema_version": 1,
        "quick": args.quick,
        "workload": f"synthetic_r1cs(log_size=10, seed={WORKLOAD_SEED})",
        "policy": {
            "max_retries": CHAOS_POLICY.max_retries,
            "backoff_base_s": CHAOS_POLICY.backoff_base_s,
            "backoff_cap_s": CHAOS_POLICY.backoff_cap_s,
            "dispatch_timeout_s": CHAOS_POLICY.dispatch_timeout_s,
        },
        "scenarios": results,
        "worker_count_sweep": sweep,
        "recovery_overhead": overhead,
        "elapsed_seconds": round(time.perf_counter() - t_start, 2),
        "ok": ok,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n{len(results)} scenarios in {report['elapsed_seconds']:.1f}s "
          f"(report: {args.out})")
    if not ok:
        bad = failures or ["worker_count_sweep" if not sweep["identical"]
                           else "recovery_overhead"]
        print(f"FAIL: {', '.join(bad)}")
        return 1
    print("OK: every injected fault ended in byte-identical proofs or a "
          "typed error, with zero leaked segments and a matching "
          "flight-recorder event")
    return 0


if __name__ == "__main__":
    sys.exit(main())
