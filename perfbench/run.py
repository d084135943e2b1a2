#!/usr/bin/env python3
"""Repository benchmark for c4b.

Builds the c4b libraries and the `perfbench` runner from this checkout's
sources (CMake, into .bench_build/perfbench), runs one workload in a fresh
directory under .bench_build/runs that is removed afterwards, checks the
runner's result against BENCHMARK.json and prints it as the last line of
standard output:

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 15 --trace 0

Workloads: table3, synth_batch, daemon_edit (see perfbench/README.md).
`--trace 1` reports the per-layer metrics instead of the end-to-end ones and
writes the spans and the layer self-time table to .bench_build/traces.

    python3 perfbench/run.py --self-check

runs every workload with one expected answer corrupted and exits 0 only if
each run reports failed ops.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
WORKLOADS = ("table3", "synth_batch", "daemon_edit")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no c4b sources in {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace, tamper=False):
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=runs)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", str(HERE / "expected")]
    if trace:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}")]
    if tamper:
        cmd.append("--tamper")
    try:
        # The runner's cwd is its own fresh directory: the daemon's socket
        # and durable stores live there.
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        die(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{workload} printed no result")
    return json.loads(lines[-1])


def self_check(binary):
    ok = True
    for workload in WORKLOADS:
        res = run_workload(binary, workload, 0, 1, 0, tamper=True)
        caught = res["failed"] > 0 and not res["correct"]
        print(f"self-check {workload}: {res['failed']} of {res['attempted']} "
              f"ops failed with a corrupted expected answer "
              f"({'caught' if caught else 'MISSED'})")
        ok = ok and caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if args.self_check:
        sys.exit(self_check(binary))

    res = run_workload(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    want = expected_metrics(args.trace)
    if sorted(res["metrics"]) != sorted(want):
        die(f"metrics {sorted(res['metrics'])} differ from BENCHMARK.json")
    print(json.dumps(res))


if __name__ == "__main__":
    main()
