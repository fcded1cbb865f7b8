#!/usr/bin/env python3
"""Self-test of the benchmark: determinism, workload claims, trace schema.

Usage, from the root of a checkout of the repository:

  python3 perfbench/selftest.py [--seconds N]

Builds the driver like run.py, then checks:

  * the exact counts (allocs_per_op, alloc_bytes_per_op, monitor_ops_per_op,
    native_code_bytes, pea.* counts, ir.*) are bit-identical across two runs
    of one seed and across two seeds, on every workload;
  * every run is correct, error_rate is 0, no steady workload compiles
    inside its measured window, and each JSON line carries exactly the
    metrics BENCHMARK.json declares;
  * each workload stresses what it claims: pea-churn with PEA allocates at
    most 0.75x what it allocates without; escape-gc makes >= 0.5 scavenges
    per op; flat-locks makes < 0.1; jit-compile allocates nothing on the VM
    heap;
  * every traced run's JSON passes scripts/check_trace.py unchanged;
  * a JVM_* variable in the environment makes the driver refuse to run, and
    a directory holding only BENCHMARK.json and perfbench/ makes run.py
    fail without printing a result.

Exits 1 if any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build step)

WORKLOADS = run.WORKLOADS
STEADY = ("pea-churn", "escape-gc", "flat-locks")
SEEDS = (1, 2)
EXACT = ("allocs_per_op", "alloc_bytes_per_op", "monitor_ops_per_op",
         "native_code_bytes")
# pea.escape_us is a time; every other pea.* metric is a count.
TIMED = ("pea.escape_us",)
OUT = run.BUILD / "selftest"

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def drive(driver, workload, seed, seconds, trace, extra=(), env=None):
    """Runs the driver once; returns (exit code, result dict or None)."""
    trace_out = OUT / f"{workload}-{seed}-{trace}.json"
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(trace_out), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                       timeout=seconds + run.RUN_GRACE_S)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if trace and p.returncode == 0:
        lint = subprocess.run(
            [sys.executable, str(run.ROOT / "scripts" / "check_trace.py"),
             str(trace_out)], capture_output=True, text=True)
        check(lint.returncode == 0,
              f"{workload} seed {seed}: trace passes check_trace.py "
              f"({(lint.stdout + lint.stderr).strip()})")
    return p.returncode, result


def exact_counts(untraced, traced):
    values = {k: untraced["metrics"][k]["value"]
              for k in EXACT if k in untraced["metrics"]}
    for k, v in traced["metrics"].items():
        if k in EXACT or k.startswith("ir.") or (
                k.startswith("pea.") and k not in TIMED):
            values[k] = v["value"]
    return values


def metric(result, name):
    return result["metrics"][name]["value"]


def declared_metrics():
    """The end-to-end and per-layer metric names BENCHMARK.json declares."""
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=2)
    args = p.parse_args()

    driver = run.build()
    OUT.mkdir(parents=True, exist_ok=True)

    end_to_end, per_layer = declared_metrics()
    for w in WORKLOADS:
        counts = []
        traced_first = None
        for seed in (SEEDS[0], *SEEDS):
            rc0, untraced = drive(driver, w, seed, args.seconds, 0)
            rc1, traced = drive(driver, w, seed, args.seconds, 1)
            ok = (rc0 == 0 and rc1 == 0 and untraced and traced
                  and untraced["correct"] and traced["correct"])
            check(bool(ok), f"{w} seed {seed}: runs exit 0 and are correct")
            if not ok:
                break
            check(set(untraced["metrics"]) == end_to_end
                  and set(traced["metrics"]) == per_layer,
                  f"{w} seed {seed}: JSON lines carry exactly the metrics "
                  f"BENCHMARK.json declares")
            check(metric(traced, "error_rate") == 0,
                  f"{w} seed {seed}: error_rate is 0")
            if w in STEADY:
                check(metric(traced, "vm.compiles_in_window") == 0,
                      f"{w} seed {seed}: nothing compiles in the window")
            counts.append(exact_counts(untraced, traced))
            traced_first = traced_first or traced
        if len(counts) == 3:
            check(counts[0] == counts[1],
                  f"{w}: exact counts identical across two runs of seed "
                  f"{SEEDS[0]}")
            diff = {k: (counts[0][k], counts[2].get(k)) for k in counts[0]
                    if counts[0][k] != counts[2].get(k)}
            check(not diff, f"{w}: exact counts identical across seeds "
                  f"{SEEDS[0]} and {SEEDS[1]} {diff or ''}")
        if traced_first is None:
            continue
        if w == "pea-churn":
            rc, none = drive(driver, w, SEEDS[0], args.seconds, 1,
                             extra=("--ea", "none"))
            if rc == 0 and none:
                with_pea = metric(traced_first, "allocs_per_op")
                without = metric(none, "allocs_per_op")
                check(with_pea <= 0.75 * without,
                      f"pea-churn: allocs/op with PEA {with_pea:.0f} <= 0.75 x "
                      f"without {without:.0f} ({with_pea / without:.3f}x)")
            else:
                check(False, "pea-churn: --ea none run exits 0")
        elif w == "escape-gc":
            v = metric(traced_first, "memory.scavenges_per_op")
            check(v >= 0.5, f"escape-gc: {v:.3f} scavenges/op >= 0.5")
        elif w == "flat-locks":
            v = metric(traced_first, "memory.scavenges_per_op")
            check(v < 0.1, f"flat-locks: {v:.3f} scavenges/op < 0.1")
        elif w == "jit-compile":
            v = metric(traced_first, "allocs_per_op")
            check(v == 0, f"jit-compile: {v} VM-heap allocs/op == 0")

    env = dict(os.environ, JVM_EXEC_MODE="linear")
    rc, result = drive(driver, "flat-locks", 1, 1, 0, env=env)
    check(rc != 0 and result is None,
          f"JVM_EXEC_MODE set: driver refuses (exit {rc}, no result)")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    p = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "pea-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0 and not p.stdout.strip(),
          f"bare directory: run.py fails without a result (exit "
          f"{p.returncode})")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} check(s) failed" if failures
          else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
