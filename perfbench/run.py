#!/usr/bin/env python3
"""Scale benchmark launcher: builds mmx_perfbench from the checkout, runs
one workload and prints the result object as the last line of stdout.

    python3 perfbench/run.py --workload fault_storm --seed 4242 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics (run_s, setup_s, peak_rss_mb);
--trace 1 reports the per-layer table from a traced replay. Run it from
the root of a checkout; it builds into .bench_build/perfbench there.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mmx_perfbench")
WORKLOADS = ("join_storm", "steady_poll", "fault_storm", "overload")
# Set-up is timed in fresh processes (it includes process start); the
# median of this many launches is reported.
SETUP_LAUNCHES = 51


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build mmx_perfbench; raises on failure."""
    # A failed configure leaves a cache behind but no build files.
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "mmx_perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)


def last_json(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("mmx_perfbench printed no result")
    return json.loads(lines[-1])


def bench(*args):
    proc = subprocess.run([BINARY, *args], stdout=subprocess.PIPE, text=True, check=True)
    return last_json(proc.stdout)


def setup_seconds(workload):
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as the child's steady_clock
        samples.append(bench("setup", "--workload", workload, "--t0-ns", str(t0))["setup_s"])
    log(f"setup_s samples {' '.join(f'{s:.6f}' for s in samples)}")
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload shape scaled down and check the replay")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    if args.self_test:
        return subprocess.run([BINARY, "selftest"]).returncode

    if args.trace:
        table = os.path.join(BUILD, f"trace-{args.workload}-{args.seed}.json")
        result = bench("trace", "--workload", args.workload, "--seed", str(args.seed),
                       "--json", table)
        log(f"per-layer table written to {os.path.relpath(table, ROOT)}")
    else:
        setup_s = setup_seconds(args.workload)
        result = bench("run", "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds))
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, ValueError) as e:
        log(f"failed: {e}")
        sys.exit(1)
