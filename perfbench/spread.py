"""Run one workload under several seeds and report each end-to-end
metric's median and spread (quartile distance over median).

    python3 perfbench/spread.py --workload service-mixed --seeds 1 2 3 4 5

``--seconds`` defaults to ``run_seconds`` from BENCHMARK.json.  A
spread below a third of the metric's bound is marked ``ok``, any other
``WIDE``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import iqr_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode or not result.get("correct"):
            print(proc.stdout + proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        digest = next((ln.split()[-1] for ln in lines
                       if ln.startswith("fixed-seed proof digest")), "-")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed:>4} wall {wall:6.1f}s digest {digest[:12]} "
              + " ".join(f"{k}={v:.5g}" for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values[name].append(value)
    if len(args.seeds) < 2:
        return 0
    for m in spec["end_to_end"]:
        mid, spread = iqr_spread(values[m["name"]])
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:<14} median {mid:12.6g} {m['unit']:<6} "
              f"spread {spread:7.4f} bound {m['bound']:.3f} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
