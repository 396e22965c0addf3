#!/usr/bin/env python3
"""Benchmark of the advisor daemon (`snakes serve`).

Builds the daemon and the harness from source, runs one workload, and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of the repository:

    python3 perfbench/run.py --workload price_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload price_hot --seed 1 --seconds 20 --trace 0 --repeat 5

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see perfbench/README.md). `--repeat N` runs seeds seed..seed+N-1 and
prints, per metric, the median, quartiles, min/max and the quartile spread
as a share of the median, next to the bound BENCHMARK.json allows.
Cargo's target directory is $CARGO_TARGET_DIR, else .bench_build.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("price_hot", "advise_cold", "durable_mixed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A harness run takes 15-30 s; anything near this is a hang.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds `snakes` and the harness; returns both executables."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "snakes-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 2)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "snakes"), os.path.join(release, "perfbench-harness")


def git_rev():
    """The commit, or a hash of the sources when the checkout has no git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    for base in ("Cargo.toml", "Cargo.lock", "crates"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree:" + digest.hexdigest()[:16]


def run_once(exes, workload, seed, seconds, trace):
    """One harness run; returns (report, result) parsed from its stdout."""
    snakes, harness = exes
    work = os.path.join(ROOT, ".perfbench-work")
    cmd = [harness, "--snakes", snakes, "--work", work, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"harness exited with {done.returncode}")
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"malformed result line: {lines[-1]}")
    return report, result


def summarize(results, reports, trace):
    """Per metric: median, quartiles, min/max and spread over the runs."""
    bounds = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec) as fh:
            bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}
    summary = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(values),
                         "max": max(values), "spread": spread, "bound": bounds.get(name)}
        flag = ""
        if not trace and bounds.get(name) and name != "setup_s" and spread > bounds[name] / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"{name:28s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  "
              f"min {min(values):14.4f}  max {max(values):14.4f}  spread {spread:7.2%}{flag}",
              file=sys.stderr)
    if trace:
        exact = reports[0]["exact_counts"]
        drifting = [n for n in exact if len({r["metrics"][n]["value"] for r in results}) > 1]
        print(f"exact counts repeated: {not drifting} {drifting or ''}", file=sys.stderr)
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.repeat < 1:
        fail("--seed must be ≥ 0, --seconds and --repeat ≥ 1", 2)

    started = time.monotonic()
    exes = build()
    context = {"git_rev": git_rev(), "profile": "release", "build_s": time.monotonic() - started}
    print(json.dumps({"context": context}))
    reports, results = [], []
    for k in range(args.repeat):
        report, result = run_once(exes, args.workload, args.seed + k, args.seconds, args.trace)
        print(json.dumps({"report": report}))
        reports.append(report)
        results.append(result)
    if args.repeat > 1:
        summary = summarize(results, reports, args.trace)
        print(json.dumps({"summary": summary}))
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    print(json.dumps(results[-1]))
    if not ok:
        fail("a correctness gate failed or a request failed; see the report lines")


if __name__ == "__main__":
    main()
