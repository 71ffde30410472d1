"""Functional-prover perf-regression harness.

Times real Spartan+Orion prove/verify calls on synthetic R1CS instances
across a sweep of sizes and emits the results as machine-readable JSON,
so successive PRs have a recorded perf trajectory instead of anecdotes.

Methodology: one warm-up proof per size (imports, twiddle/plan caches),
then wall-clock best-of-``--repeats`` for prove and verify.  Best-of is
deliberate — on a shared machine the minimum tracks the code's cost while
the mean tracks the machine's load.  Every timed proof is verified; the
run aborts if any fails.

Since schema_version 2 each row also carries a per-phase breakdown
(exclusive wall seconds per task family, from one additional traced
prove) and the harness asserts that the *disabled* tracer's projected
overhead — measured null-span / disabled-counter unit costs times the
observed instrumentation-event counts — stays under 2% of the proving
time, so the observability layer cannot silently tax the hot path.

Since schema_version 3 the payload also records a ``workers_sweep`` at
the largest size: per-proof kernel parallelism (the same statement proved
through a :class:`~repro.parallel.ProverPool` at each worker count, with
a byte-identity check against the serial proof) and job-level batch
throughput via :func:`repro.snark.prove_many`.  Speedups are measured,
not assumed — on a single-core machine they will sit at or below 1.0 and
the JSON says so; the sweep exists to track the trajectory on real
multicore hardware.

Since schema_version 4 every size row records the process peak RSS (at
2^20 it is dominated by building the workload, not by proving), and the
workers sweep carries a ``dispatch`` block per worker count: pool warm-up
wall time, the measured per-task dispatch cost from the one-shot probe,
and bytes shared through :mod:`repro.parallel.shm`.  The harness asserts
``prove_many`` with workers stays at or above ``--min-batch-speedup``
(default 0.95) of the serial batch — the regression guard for the
zero-copy dispatch path.

Run:  PYTHONPATH=src python tools/bench_prover.py --json BENCH_prover.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import obs
from repro.hashing import Transcript
from repro.obs.events import FLIGHT
from repro.obs.metrics import METRICS, peak_rss_bytes
from repro.pcs import OrionPCS, PCSParams
from repro.spartan import SpartanParams, SpartanProver, SpartanVerifier
from repro.workloads import synthetic_r1cs

#: Paper-scale row count for the Orion matrix (Sec. VII-A).
DEFAULT_NUM_ROWS = 128

#: Ceiling on the disabled tracer's projected share of proving time.
MAX_NOOP_OVERHEAD_FRAC = 0.02

#: Batch proving with workers must stay within this fraction of serial
#: (the zero-copy dispatch regression guard; override with
#: ``--min-batch-speedup``, 0 disables).
DEFAULT_MIN_BATCH_SPEEDUP = 0.95

#: The speedup floor is only enforced when the serial batch takes at
#: least this long: the guard exists to catch steady-state dispatch
#: regressions, and a sub-second batch is all fixed overhead — a few
#: milliseconds of scheduler noise would swing it across any floor.
#: Skipped guards are reported, never silent.
MIN_GUARD_BATCH_S = 1.0


def measure_instrumentation_unit_costs(iters: int = 200_000) -> dict:
    """Per-event cost of *disabled* instrumentation: a null span, a
    disabled counter increment, a disabled histogram observation, and a
    disabled flight-recorder append, measured by tight-loop amortization.
    Covers everything metrics v2 compiled into the hot path."""
    assert obs.get_tracer() is None and not METRICS.enabled
    t0 = time.perf_counter()
    for _ in range(iters):
        with obs.span("bench.noop", "other"):
            pass
    span_s = (time.perf_counter() - t0) / iters
    t0 = time.perf_counter()
    for _ in range(iters):
        METRICS.inc("bench.noop")
    inc_s = (time.perf_counter() - t0) / iters
    t0 = time.perf_counter()
    for _ in range(iters):
        METRICS.observe("bench.noop_seconds", 1e-3)
    observe_s = (time.perf_counter() - t0) / iters
    flight_prev = FLIGHT.enabled
    FLIGHT.enabled = False
    try:
        t0 = time.perf_counter()
        for _ in range(iters):
            FLIGHT.record("janitor")
        flight_s = (time.perf_counter() - t0) / iters
    finally:
        FLIGHT.enabled = flight_prev
    return {"null_span_s": span_s, "disabled_inc_s": inc_s,
            "disabled_observe_s": observe_s,
            "disabled_flight_record_s": flight_s}


def noop_overhead_frac(prove_s: float, num_spans: int, num_incs: int,
                       unit_costs: dict, num_observes: int = 0) -> float:
    """Projected fraction of ``prove_s`` spent in disabled instrumentation.

    ``num_observes`` covers the v2 histogram observations (latency and
    per-family phase seconds); each proof also books one flight-recorder
    job append."""
    cost = (num_spans * unit_costs["null_span_s"]
            + num_incs * unit_costs["disabled_inc_s"]
            + num_observes * unit_costs.get("disabled_observe_s", 0.0)
            + unit_costs.get("disabled_flight_record_s", 0.0))
    return cost / prove_s if prove_s else 0.0


def bench_size(log_size: int, num_rows: int, repeats: int,
               repetitions: int, unit_costs: dict) -> dict:
    """Time prove/verify at 2^log_size constraints; returns one JSON row."""
    r1cs, public, witness = synthetic_r1cs(log_size, band=16, seed=log_size)
    params = SpartanParams(repetitions=repetitions)
    pcs_rng = np.random.default_rng(1)
    prover = SpartanProver(r1cs, OrionPCS(params=PCSParams(num_rows=num_rows),
                                          rng=pcs_rng), params)
    verifier = SpartanVerifier(r1cs, OrionPCS(params=PCSParams(num_rows=num_rows)),
                               params)

    proof = prover.prove(public, witness, Transcript())  # warm-up
    prove_s = min_wall(repeats, lambda: prover.prove(public, witness,
                                                     Transcript()))
    proof = prover.prove(public, witness, Transcript())
    if not verifier.verify(public, proof, Transcript()):
        raise SystemExit(f"proof at 2^{log_size} failed to verify")
    verify_s = min_wall(repeats, lambda: verifier.verify(public, proof,
                                                         Transcript()))

    # One traced prove for the per-phase breakdown and the event counts
    # feeding the no-op-overhead projection.
    with obs.tracing() as tracer:
        prover.prove(public, witness, Transcript())
    counters = tracer.metrics_snapshot.get("counters", {})
    num_spans = len(tracer.records())
    # Per-call counters dominate the inc count; everything else (trees,
    # sumcheck instances, encode calls) is O(10) per proof.
    num_incs = (counters.get("field.mul_batches", 0)
                + counters.get("field.scale_add_batches", 0) + 64)
    # Histogram observations per proof: one latency sample plus one
    # phase_seconds sample per task family, padded for verify/dispatch.
    num_observes = len(tracer.family_seconds()) + 8
    overhead = noop_overhead_frac(prove_s, num_spans, num_incs, unit_costs,
                                  num_observes)
    if overhead >= MAX_NOOP_OVERHEAD_FRAC:
        raise SystemExit(
            f"disabled-tracer overhead projection at 2^{log_size} is "
            f"{overhead:.2%} of proving time (limit "
            f"{MAX_NOOP_OVERHEAD_FRAC:.0%}): the no-op fast path regressed")
    return {
        "log_size": log_size,
        "num_constraints": 1 << log_size,
        "prove_s": round(prove_s, 6),
        "verify_s": round(verify_s, 6),
        "proof_size_bytes": proof.size_bytes(),
        "verified": True,
        # Cumulative process high-water mark AFTER this size completed
        # (workload construction, not proving, sets it at large sizes).
        "peak_rss_bytes": peak_rss_bytes(),
        "phase_seconds": {fam: round(s, 6) for fam, s in
                          sorted(tracer.family_seconds().items())},
        "instrumentation": {
            "spans": num_spans,
            "counter_incs_est": num_incs,
            "observes_est": num_observes,
            "noop_overhead_frac": round(overhead, 6),
        },
    }


def _dispatch_snapshot(pool) -> dict:
    """Dispatch-overhead block for one worker count (schema v4)."""
    counters = METRICS.counters()
    return {
        "pool_warm_s": round(pool.warm_s or 0.0, 6),
        "dispatch_probe_s": round(pool.dispatch_cost_s, 9),
        "bytes_shared": int(counters.get("parallel.shm_bytes_shared", 0)),
        "dispatches": int(counters.get("parallel.dispatches", 0)),
    }


def bench_workers(log_size: int, num_rows: int, repeats: int,
                  repetitions: int, worker_counts,
                  min_batch_speedup: float) -> dict:
    """Workers sweep at one size: in-proof kernel fan-out and job-level
    batch throughput, each against its own serial baseline.

    Pools are warmed (spawn + dispatch probe + proving-key broadcast)
    before the timed region, mirroring how the persistent process-wide
    pool amortizes those costs in real use; the dispatch block records
    what the warm-up cost and what the timed runs actually shipped.
    """
    from repro.parallel import ProverPool
    from repro.snark import TEST, proof_to_bytes, prove_many, setup, verify

    # Serial baselines divide the other rows, so 1 leads the sweep.
    worker_counts = sorted(set(worker_counts) | {1})
    r1cs, public, witness = synthetic_r1cs(log_size, band=16, seed=log_size)
    params = SpartanParams(repetitions=repetitions)

    def pooled_prove(pool):
        # Fresh seeded rng per call so proof bytes are comparable.
        pcs = OrionPCS(params=PCSParams(num_rows=num_rows),
                       rng=np.random.default_rng(1))
        return SpartanProver(r1cs, pcs, params, pool=pool).prove(
            public, witness, Transcript())

    kernel_rows = []
    serial_bytes = proof_to_bytes(pooled_prove(None))
    serial_s = None
    for w in worker_counts:
        with ProverPool(w) as pool:
            pool.warm()
            pooled_prove(pool)  # warm-up (primes worker caches)
            METRICS.enabled = True
            METRICS.reset()
            try:
                prove_s = min_wall(repeats, lambda: pooled_prove(pool))
                dispatch = _dispatch_snapshot(pool)
            finally:
                METRICS.enabled = False
                METRICS.reset()
            identical = proof_to_bytes(pooled_prove(pool)) == serial_bytes
        if not identical:
            raise SystemExit(
                f"pooled proof at {w} workers diverged from serial bytes")
        if w == 1:
            serial_s = prove_s
        kernel_rows.append({
            "workers": w,
            "prove_s": round(prove_s, 6),
            "speedup_vs_serial": round(serial_s / prove_s, 4),
            "bytes_identical_to_serial": identical,
            "dispatch": dispatch,
        })

    # Job-level throughput: a batch of independent statements.  Uses the
    # registry TEST preset so workers can rebuild the full pipeline from
    # the broadcast proving key.
    pk, vk = setup(r1cs, TEST)
    num_jobs = max(worker_counts)
    jobs = [(public, witness)] * num_jobs
    batch_rows = []
    batch_serial_s = None
    for w in worker_counts:
        with ProverPool(w) as pool:
            pool.warm()
            # Warm-up with one job per worker so the batch path is primed
            # like a warm pool: pk broadcast, every worker's unpickle
            # cache, and every worker's NTT root tables at this size.
            prove_many(pk, jobs[: min(w, num_jobs)], pool=pool, base_seed=0)
            METRICS.enabled = True
            METRICS.reset()
            try:
                # The speedup a multi-second batch is guarded on must be
                # robust to this-machine noise: pair every pooled shot
                # with a serial shot taken seconds earlier (cancels slow
                # drift — frequency scaling, page cache, allocator
                # state), then take the MEDIAN of the per-round ratios
                # (discards the heavy-tailed steal-time spikes a shared
                # vCPU lands on individual shots, which a ratio of two
                # independent minima amplifies instead).
                bundles = None
                ratios = []
                pooled_best = float("inf")
                for _ in range(max(1, repeats)):
                    t0 = time.perf_counter()
                    prove_many(pk, jobs, workers=1, base_seed=5)
                    serial_i = time.perf_counter() - t0
                    t0 = time.perf_counter()
                    bundles = prove_many(pk, jobs, pool=pool, base_seed=5)
                    pooled_i = time.perf_counter() - t0
                    ratios.append(serial_i / pooled_i)
                    pooled_best = min(pooled_best, pooled_i)
                batch_s = pooled_best
                ratios.sort()
                median_ratio = ratios[len(ratios) // 2]
                dispatch = _dispatch_snapshot(pool)
            finally:
                METRICS.enabled = False
                METRICS.reset()
        if not all(verify(vk, b) for b in bundles):
            raise SystemExit(f"prove_many batch at {w} workers "
                             "produced an invalid proof")
        if w == 1:
            batch_serial_s = batch_s
        speedup = median_ratio
        batch_rows.append({
            "workers": w,
            "jobs": num_jobs,
            "batch_s": round(batch_s, 6),
            "per_proof_s": round(batch_s / num_jobs, 6),
            "speedup_vs_serial": round(speedup, 4),
            "dispatch": dispatch,
        })
        if w > 1 and min_batch_speedup > 0:
            if batch_serial_s < MIN_GUARD_BATCH_S:
                print(f"  note: {min_batch_speedup:.2f}x floor not enforced "
                      f"(serial batch {batch_serial_s:.3f}s < "
                      f"{MIN_GUARD_BATCH_S:.1f}s; too small to amortize "
                      "dispatch)")
            elif speedup < min_batch_speedup:
                raise SystemExit(
                    f"prove_many at {w} workers ran at {speedup:.2f}x "
                    f"serial, below the {min_batch_speedup:.2f}x floor: the "
                    "zero-copy dispatch path regressed")
    import os

    return {
        "log_size": log_size,
        "cpu_count": os.cpu_count(),
        "min_batch_speedup": min_batch_speedup,
        "guard_enforced": bool(min_batch_speedup > 0
                               and batch_serial_s >= MIN_GUARD_BATCH_S),
        "kernel_parallel": kernel_rows,
        "prove_many": batch_rows,
    }


def min_wall(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", metavar="PATH", default="BENCH_prover.json",
                    help="output file (default: %(default)s)")
    ap.add_argument("--min-log", type=int, default=10,
                    help="smallest log2 constraint count (default: %(default)s)")
    ap.add_argument("--max-log", type=int, default=16,
                    help="largest log2 constraint count (default: %(default)s)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N wall-clock repeats (default: %(default)s)")
    ap.add_argument("--num-rows", type=int, default=DEFAULT_NUM_ROWS,
                    help="Orion matrix rows (default: %(default)s)")
    ap.add_argument("--repetitions", type=int, default=1,
                    help="sumcheck repetitions (default: 1 — timing, not "
                         "soundness; the paper's 128-bit setting is 3)")
    ap.add_argument("--workers", default="1,2,4",
                    help="comma-separated worker counts for the parallel "
                         "sweep at the largest size (default: %(default)s); "
                         "pass 0 to skip the sweep")
    ap.add_argument("--min-batch-speedup", type=float,
                    default=DEFAULT_MIN_BATCH_SPEEDUP,
                    help="fail if prove_many with workers drops below this "
                         "fraction of serial (default: %(default)s; 0 "
                         "disables, e.g. on noisy CI runners)")
    args = ap.parse_args(argv)
    if args.min_log > args.max_log:
        ap.error(f"--min-log {args.min_log} exceeds --max-log {args.max_log}")
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    unit_costs = measure_instrumentation_unit_costs()
    print(f"disabled instrumentation: null span "
          f"{unit_costs['null_span_s'] * 1e9:.0f} ns, "
          f"disabled inc {unit_costs['disabled_inc_s'] * 1e9:.0f} ns, "
          f"disabled observe {unit_costs['disabled_observe_s'] * 1e9:.0f} ns, "
          f"disabled flight {unit_costs['disabled_flight_record_s'] * 1e9:.0f}"
          " ns")

    results = []
    print(f"{'size':>6} {'prove (s)':>10} {'verify (s)':>10} {'proof (B)':>10}"
          f" {'noop ovh':>9}")
    for log_size in range(args.min_log, args.max_log + 1):
        row = bench_size(log_size, args.num_rows, args.repeats,
                         args.repetitions, unit_costs)
        results.append(row)
        print(f"  2^{log_size:<3} {row['prove_s']:>10.4f} "
              f"{row['verify_s']:>10.4f} {row['proof_size_bytes']:>10} "
              f"{row['instrumentation']['noop_overhead_frac']:>9.4%}")

    worker_counts = [int(w) for w in str(args.workers).split(",") if w]
    workers_sweep = None
    if worker_counts != [0]:
        print(f"workers sweep at 2^{args.max_log} "
              f"(counts: {sorted(set(worker_counts) | {1})}):")
        workers_sweep = bench_workers(args.max_log, args.num_rows,
                                      args.repeats, args.repetitions,
                                      worker_counts,
                                      args.min_batch_speedup)
        for row in workers_sweep["kernel_parallel"]:
            d = row["dispatch"]
            print(f"  kernels   w={row['workers']}: {row['prove_s']:.4f} s "
                  f"({row['speedup_vs_serial']:.2f}x, "
                  f"shared {d['bytes_shared']:,} B)")
        for row in workers_sweep["prove_many"]:
            d = row["dispatch"]
            print(f"  batch x{row['jobs']} w={row['workers']}: "
                  f"{row['batch_s']:.4f} s "
                  f"({row['speedup_vs_serial']:.2f}x, "
                  f"shared {d['bytes_shared']:,} B)")

    payload = {
        "benchmark": "spartan_orion_functional_prover",
        "schema": "repro/bench-prover",
        "schema_version": 4,
        "workload": "synthetic_r1cs(band=16)",
        "num_rows": args.num_rows,
        "repetitions": args.repetitions,
        "repeats": args.repeats,
        "timing": "best-of-N wall clock, warm",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "instrumentation_unit_costs_s": {
            k: round(v, 12) for k, v in unit_costs.items()},
        "max_noop_overhead_frac": MAX_NOOP_OVERHEAD_FRAC,
        "results": results,
        "workers_sweep": workers_sweep,
    }
    Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
