#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the root of a checkout of the repository:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
      --trace <0|1>

Workloads: pea-churn, escape-gc, flat-locks, jit-compile (README.md says
why each exists). The first run configures and builds the VM libraries and
the driver into .bench_build/ (about a minute on 4 cores); later runs only
check that the build is up to date. The driver's last line on stdout is the
result JSON. With --trace 1 the spans are written as Chrome trace_event
JSON to .bench_build/perfbench-trace-<workload>.json.

Exits nonzero without a result when the VM sources are missing, the build
fails, a JVM_* variable is set, or an op disagrees with the reference.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("pea-churn", "escape-gc", "flat-locks", "jit-compile")
# The driver stops measuring after --seconds; setup, the reference run and
# teardown take a few seconds more.
RUN_GRACE_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def checkout_env():
    """The environment for every child: temporary files stay in the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_logged(cmd, log):
    """Runs a build step, appending its output to the build log."""
    with open(log, "a", encoding="utf-8") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                            env=checkout_env()).returncode
    if rc != 0:
        with open(log, encoding="utf-8", errors="replace") as f:
            tail = f.readlines()[-40:]
        sys.stderr.write("".join(tail))
        fail(f"build step failed ({' '.join(cmd[:2])}); full log in {log}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail(f"no VM sources under {ROOT}; run from a checkout of the repository")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "perfbench-build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            log,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
         "-j", jobs],
        log,
    )
    return BUILD / "perfbench_driver"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600")

    driver = build()
    cmd = [
        str(driver),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-out", str(BUILD / f"perfbench-trace-{args.workload}.json"),
    ]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, env=checkout_env(),
                            timeout=args.seconds + RUN_GRACE_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within "
             f"{args.seconds + RUN_GRACE_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
