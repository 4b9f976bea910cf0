#!/usr/bin/env python3
"""Build and run the Moira benchmark.

One run:

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0

builds the Go package in perfbench/ against the repository's sources into
.bench_build/ and runs it once. The last line of standard output is the
JSON result.

Repeat mode:

    python3 perfbench/run.py --workload query --repeat 10 [--sets 2] [--first-seed 1]

runs one workload K times per set, each run with the next seed, and prints
for every metric the median, the quartiles and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json. With --sets 2 it also prints
how far the second set's median moved from the first's.

All build output, Go caches and temporary files stay under .bench_build/ at
the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT = 175  # seconds; a run must end well inside three minutes


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOENV="off",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        TMPDIR=os.path.join(BUILD, "tmp"),
    )
    return env


def build(env):
    os.makedirs(env["TMPDIR"], exist_ok=True)
    res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if res.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(env, workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary once and returns its parsed result."""
    tmp = env["TMPDIR"]
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if echo:
        sys.stdout.write(res.stdout)
        sys.stdout.flush()
    if res.returncode != 0:
        sys.exit("perfbench: run failed (exit %d)" % res.returncode)
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(results, spec):
    out = {}
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[name] = (q1, statistics.median(vals), q3)
        bound = spec.get(name, {}).get("bound")
        spread = (q3 - q1) / med if med else float("nan")
        note = ""
        if bound is not None:
            note = "bound %.3f %s" % (bound, "ok" if spread <= bound else "WIDE")
        print("%-34s median %14.4f  q1 %14.4f  q3 %14.4f  spread %.4f  %s"
              % (name, out[name][1], q1, q3, spread, note))
    failed = [r["failed"] / r["attempted"] for r in results]
    print("failed share per run: %s; correct: %s"
          % (sorted(set(failed)), all(r["correct"] for r in results)))
    return out


def repeat(env, args):
    spec = bounds()
    sets = []
    seed = args.first_seed
    for s in range(args.sets):
        results = []
        for _ in range(args.repeat):
            r = run_once(env, args.workload, seed, args.seconds, args.trace, echo=False)
            print("seed %d: %s" % (seed, json.dumps(r)), flush=True)
            results.append(r)
            seed += 1
        print("== %s, set %d, %d runs" % (args.workload, s + 1, len(results)))
        sets.append(summarize(results, spec))
    if len(sets) > 1:
        print("== second set against the first")
        for name, (_, m1, _) in sorted(sets[0].items()):
            m2 = sets[1][name][1]
            better = spec.get(name, {}).get("better", "lower")
            worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            bound = spec.get(name, {}).get("bound")
            note = "" if bound is None else ("ok" if worse <= bound else "WORSE than bound %.3f" % bound)
            print("%-34s %14.4f -> %14.4f  worse by %+.4f  %s" % (name, m1, m2, worse, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["query", "update", "dcm"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=0, help="runs per set (repeat mode)")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs in repeat mode")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first run in repeat mode")
    args = ap.parse_args()
    env = go_env()
    build(env)
    if args.repeat:
        repeat(env, args)
    else:
        run_once(env, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
