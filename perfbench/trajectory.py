#!/usr/bin/env python3
"""Measures one trajectory point of the repository benchmark.

Runs every workload of BENCHMARK.json ten times untraced and five times
traced, each run with its own seed, through perfbench/run.py, and writes the
median and quartiles of every metric (Python's
statistics.quantiles(values, n=4)) to --out:

    python3 perfbench/trajectory.py --label seed --out perfbench/baseline/seed.json

The spread printed per metric is (q3 - q1) / median. The tracing overhead
of a workload is its traced trace.ops_per_s median against its untraced
ops_per_s median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
TRACED_RUNS = 5


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode:
        sys.exit(f"{workload} seed {seed} trace {trace} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "run_seconds": spec["run_seconds"],
             "runs": RUNS, "traced_runs": TRACED_RUNS,
             "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        seeds = range(args.first_seed, args.first_seed + RUNS)
        untraced = [run(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = [run(name, s, spec["run_seconds"], 1)
                  for s in seeds[:TRACED_RUNS]]
        e2e = summarize(untraced)
        entry = {"seeds": list(seeds),
                 "all_correct": all(r["correct"] for r in untraced + traced),
                 "failed": sum(r["failed"] for r in untraced + traced),
                 "end_to_end": e2e}
        layers = summarize(traced)
        entry["per_layer"] = layers
        entry["tracing_overhead"] = 1 - (layers["trace.ops_per_s"]["median"]
                                         / e2e["ops_per_s"]["median"])
        point["workloads"][name] = entry
        for m, s in e2e.items():
            flag = "" if s["spread"] < bounds[m] / 3 else "  (>= bound/3)"
            print(f"{name:12s} {m:12s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.4f} bound {bounds[m]}{flag}",
                  flush=True)
        print(f"{name:12s} tracing overhead "
              f"{entry['tracing_overhead']:+.4f}", flush=True)
    point["measured_at"] = time.strftime("%Y-%m-%d", time.gmtime())
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
