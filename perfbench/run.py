#!/usr/bin/env python3
"""Builds the benchmark from source and runs it from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run: the last line of standard output is the result object.

    python3 perfbench/run.py --determinism --workload NAME [--seed N] [--seconds S]
        Runs the workload twice in fresh processes, untraced and traced,
        and diffs the counts that must repeat exactly.

    python3 perfbench/run.py --spread [--workload NAME ...] [--seeds 1,2,...] [--seconds S]
        Runs each workload once per seed and prints, per end-to-end
        metric, the median and the quartile spread (Q3 - Q1) / median.

Workloads: serve-dup, compile-paper, exact-hard (see perfbench/README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["serve-dup", "compile-paper", "exact-hard"]
# One run may take this long before it is stopped (set-up and checks
# come on top of --seconds).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Compared exactly by --determinism; the traced ones come from the
# standalone backends, which read no clock.
EXACT_UNTRACED = ["proved", "nops_total", "alloc_mb"]
EXACT_TRACED = ["Optimal.omega_calls", "Cp.decisions", "Cp.conflicts"]


def build():
    """Builds the benchmark executable; False when the build fails."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def run(workload, seed, seconds, trace, outcomes=None):
    """One run of the executable; (exit code, standard output)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if outcomes:
        cmd += ["--outcomes", outcomes]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} ran over "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return r.returncode, r.stdout


def result(stdout):
    """The result object on the last line of a run's output."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def ok(code, stdout):
    """Whether a run exited cleanly with a correct, failure-free result."""
    res = result(stdout) if code == 0 else None
    return bool(res and res["correct"] and res["failed"] == 0)


def metric_values(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


def determinism(args):
    """Two fresh processes of one workload must give the same counts."""
    os.makedirs("perfbench-out", exist_ok=True)
    runs = []
    for k in (1, 2):
        outcomes = os.path.join(
            "perfbench-out", f"outcomes-{args.workload}-{args.seed}-{k}.txt")
        code0, out0 = run(args.workload, args.seed, args.seconds, 0, outcomes)
        code1, out1 = run(args.workload, args.seed, args.seconds, 1)
        if not (ok(code0, out0) and ok(code1, out1)):
            print("perfbench: a run failed", file=sys.stderr)
            return 1
        with open(outcomes) as f:
            lines = f.read().splitlines()
        runs.append((metric_values(result(out0)), metric_values(result(out1)),
                     lines))
    (u1, t1, o1), (u2, t2, o2) = runs
    diffs = [(k, u1[k], u2[k]) for k in EXACT_UNTRACED if u1[k] != u2[k]]
    diffs += [(k, t1[k], t2[k]) for k in EXACT_TRACED if t1[k] != t2[k]]
    # Operations whose first-pass outcome differs between the processes.
    timing = [a.split()[0] for a, b in zip(o1, o2) if a != b]
    for k, a, b in diffs:
        print(f"{k}: {a} != {b}")
    print(f"operations whose outcome depended on timing: "
          f"{' '.join(timing) if timing else 'none'}")
    if args.workload == "exact-hard":
        # The race's split of work between its two domains, and so the
        # allocation, depends on timing; proved and NOPs may only move
        # with operations listed above.
        diffs = [d for d in diffs if d[0] != "alloc_mb"
                 and not (timing and d[0] in ("proved", "nops_total"))]
    elif timing:
        diffs.append(("outcomes", len(timing), 0))
    print("exact counts repeat" if not diffs else "exact counts DIFFER")
    return 0 if not diffs else 1


def spread(args):
    """Per-metric median and quartile spread over one run per seed."""
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {}
    for w in args.workloads:
        values, failed = {}, []
        for s in seeds:
            code, out = run(w, s, args.seconds, 0)
            res = result(out) if ok(code, out) else None
            if res is None:
                print(f"perfbench: {w} seed {s} failed", file=sys.stderr)
                return 1
            failed.append((res["failed"], res["attempted"]))
            for k, v in metric_values(res).items():
                values.setdefault(k, []).append(v)
        report[w] = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            report[w][k] = {"median": med, "spread": (q3 - q1) / med,
                            "values": vs}
            print(f"{w:14s} {k:12s} median {med:14.6g} spread "
                  f"{(q3 - q1) / med:7.4f}")
        report[w]["failed"] = failed
    os.makedirs("perfbench-out", exist_ok=True)
    with open(os.path.join("perfbench-out", "spread.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=WORKLOADS)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--determinism", action="store_true")
    p.add_argument("--spread", action="store_true")
    args = p.parse_args()
    if not (args.spread or args.workload):
        p.error("--workload is required")
    if not build():
        return 1
    if args.determinism:
        return determinism(args)
    if args.spread:
        return spread(args)
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or result(out) is None:
        return code or 1
    sys.stdout.write(out)
    # A failed output check fails the run, after its result is shown.
    return 0 if ok(code, out) else 1


if __name__ == "__main__":
    sys.exit(main())
