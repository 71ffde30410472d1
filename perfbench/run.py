"""The repository benchmark: one workload per call.

    python3 perfbench/run.py --workload single-2e20 --seed 1 \\
        --seconds 15 --trace 0

Runs the named workload (see ``workloads.py``) for about ``--seconds``
of measured work, checks every output, and prints a human-readable
report followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
taken from a run with every layer's entry points wrapped, and the spans
are written in Chrome trace format under ``.perfbench_out/``.  The exit
code is 0 only when every check passed; 2 when the package under
``src/`` cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("single-2e20", "service-mixed")


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _per_layer(result: dict, recorder) -> tuple:
    """Per-layer metrics of a traced run, and the merged Chrome trace."""
    import layers
    from spans import window

    span_lists = [recorder.closed()]
    counts = dict(recorder.counts)
    daemon_spans = []
    if result.get("daemon_spans"):
        # Keep what the daemon did between the two ``stats`` calls that
        # bracket the timed section (its warm-up came before them).
        with open(result["daemon_spans"]) as fh:
            dumped = json.load(fh)
        before, after = dumped["marks"][-2:]
        daemon_spans = window(dumped["spans"], before["spans"],
                              after["spans"])
        span_lists.append(daemon_spans)
        for key, value in after["counts"].items():
            counts[key] = (counts.get(key, 0.0) + value
                           - before["counts"].get(key, 0.0))
    metrics = layers.layer_metrics(span_lists, counts, result["ops"])
    metrics["trace_overhead_frac"] = result["trace_overhead_frac"]
    metrics.update(result.get("service_layer", {}))
    trace = recorder.chrome_trace(extra_spans=daemon_spans)
    return metrics, trace


def _print_report(args, env: dict, result: dict, tally, metrics: dict,
                  units: dict) -> None:
    import layers
    import workloads

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"fixed-seed proof digest {result.get('digest', '-')}")
    for key, value in result.get("extra", {}).items():
        print(f"  {key}: {value}")
    if args.trace:
        print(f"per-layer figures are per {workloads.OP_UNIT[args.workload]}"
              f" ({result.get('ops', 0)} traced)")
        for layer, (metric, on) in layers.SHOULD_MOVE.items():
            print(f"  layer {layer:<12} should move {metric} on {on}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    frac = tally.failed / max(1, tally.attempted)
    print(f"{'failed_frac':<40} {frac:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted} checks)")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import procs
    import workloads
    from spans import SpanRecorder

    spec = _load_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # A unix socket path is limited to about 100 bytes: keep it relative.
    rel_workdir = Path(os.path.relpath(workdir))
    shm_before = set(procs.shm_segments())
    env = procs.environment(args.seed)
    tally = workloads.Tally()
    recorder = SpanRecorder() if args.trace else None
    t_start = time.perf_counter()
    result: dict = {}
    metrics: dict = {}
    try:
        if args.workload == "single-2e20":
            result = workloads.run_single(args.seed, args.seconds,
                                          bool(args.trace), tally, recorder)
        else:
            result = workloads.run_service(args.seed, args.seconds,
                                           bool(args.trace), tally, recorder,
                                           rel_workdir, SRC)
        if args.trace:
            layer_metrics, trace = _per_layer(result, recorder)
            from repro.obs.export import validate_chrome_trace

            problems = validate_chrome_trace(trace)
            tally.check(not problems, f"chrome trace invalid: {problems[:3]}")
            trace_path = OUT_DIR / (f"trace-{args.workload}-"
                                    f"seed{args.seed}.json")
            with open(trace_path, "w") as fh:
                json.dump(trace, fh)
            result.setdefault("extra", {})["trace_file"] = str(
                os.path.relpath(trace_path))
            metrics = {name: float(layer_metrics.get(name, 0.0))
                       for name in units}
        else:
            metrics = {name: float(result["e2e"][name]) for name in units}
    except Exception:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        tally.check(False, "workload raised; see the traceback on stderr")
    finally:
        procs.stop_resource_tracker()
        stray = procs.reap_children()
        tally.check(not stray, f"stray child processes {stray}")
        leftover = sorted(set(procs.shm_segments()) - shm_before)
        tally.check(not leftover, f"leftover shared memory {leftover}")
        shutil.rmtree(workdir, ignore_errors=True)
    result.setdefault("extra", {})["wall_s"] = time.perf_counter() - t_start

    _print_report(args, env, result, tally, metrics, units)
    correct = tally.failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
