#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/selftest.py              # quick tests, a few minutes
    python3 perfbench/selftest.py --spread 10  # ten seeds per workload, twice

The quick tests check that
  - BENCHMARK.json names exactly the metrics bench.exe reports;
  - the same seed gives identical simulated metrics (sim_time_s and
    alloc_mwords) and a different seed gives different inputs;
  - a traced run reports every per-layer metric, and its pure-observer
    gates (traced, profiled and checker runs simulate exactly like the
    untraced one) hold.

--spread N runs every workload on N seeds, in two sets, as a comparison
of two commits would.  For each end-to-end metric it prints the spread
(interquartile range over median) of each set and how far the second
median is from the first, and fails if a spread other than setup_s's
exceeds a third of the metric's bound or the medians disagree by more
than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    return cond


def quick():
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    run(WORKLOADS[0], 1, 0)  # builds bench.exe
    catalogue = json.loads(subprocess.run([exe, "--list-metrics"], stdout=subprocess.PIPE,
                                          text=True, check=True).stdout)
    ok = True
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in SPEC[kind]]
        reported = [(m["name"], m["unit"], m["better"]) for m in catalogue[kind]]
        ok &= check(declared == reported, f"BENCHMARK.json {kind} matches bench.exe")
    for w in WORKLOADS:
        a, b, c = run(w, 7, 0), run(w, 7, 0), run(w, 8, 0)
        for metric in ("sim_time_s", "alloc_mwords"):
            ok &= check(a[metric] == b[metric], f"{w}: same seed, same {metric}")
        ok &= check(a["sim_time_s"] != c["sim_time_s"], f"{w}: other seed, other sim_time_s")
        layers = run(w, 7, 1, trace=1)
        ok &= check(set(layers) == {m["name"] for m in SPEC["per_layer"]},
                    f"{w}: traced run reports every per-layer metric")
        critical = layers["mpisim.critical_path_s"]
        ok &= check(abs(critical - a["sim_time_s"]) <= 1e-9 * a["sim_time_s"],
                    f"{w}: critical path equals the untraced sim_time_s")
    return ok


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread(n):
    ok = True
    for w in WORKLOADS:
        sets = [[run(w, seed, SPEC["run_seconds"]) for seed in range(1, n + 1)] for _ in range(2)]
        for k, runs in enumerate(sets, 1):
            for seed, r in enumerate(runs, 1):
                print(f"run   {w} set {k} seed {seed}: "
                      + ", ".join(f"{m} {r[m]:.6g}" for m in BOUND), flush=True)
        for metric, bound in BOUND.items():
            values = [[r[metric] for r in s] for s in sets]
            spreads = [spread_of(v) for v in values]
            m1, m2 = (statistics.median(v) for v in values)
            drift = (m2 - m1) / m1
            line = (f"{w:14} {metric:13} median {m1:.6g} / {m2:.6g} (drift {drift:+.3f}), "
                    f"spread {spreads[0]:.3f} / {spreads[1]:.3f}, bound {bound}")
            steady = metric == "setup_s" or max(spreads) < bound / 3
            ok &= check(steady and drift <= bound, line)
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--spread", type=int, metavar="N", help="seeds per workload and set")
    args = ap.parse_args()
    ok = spread(args.spread) if args.spread else quick()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
