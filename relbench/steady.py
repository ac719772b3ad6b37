#!/usr/bin/env python3
"""Steadiness of the relserve benchmark's end-to-end metrics.

    python3 relbench/steady.py [--runs 10] [--seconds S] [--seed0 1]
                               [--workloads a,b,...] [--traced 0|1]

Runs every workload --runs times through run.py, a new seed each time,
rotating the workload order from round to round so slow drifts of the
host fall on every workload alike. Prints, per workload and metric,
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, which BENCHMARK.json's bounds are set from. With
--traced 1 it then makes one traced run per workload and prints the
tracing overhead: traced end-to-end value over the untraced median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("%s seed %d failed (exit %d)" % (workload, seed,
                                                  proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    traced, client = None, {}
    for line in proc.stderr.splitlines():
        if line.startswith("traced end-to-end: "):
            traced = json.loads(line[len("traced end-to-end: "):])
        if line.startswith("client view: "):
            client = json.loads(line[len("client view: "):])
    if not trace:
        # Unbounded, but their spread belongs in the README too.
        for name, m in client.items():
            result["metrics"]["client." + name] = m
    return result, traced


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    for r in range(args.runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            result, _ = run(w, args.seed0 + r, args.seconds, 0)
            if not result["correct"]:
                sys.exit("%s seed %d: incorrect output" % (w, args.seed0 + r))
            shares[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("round %d %s: %s" % (r, w, json.dumps(
                {k: round(v["value"], 4) for k, v in
                 result["metrics"].items()})), file=sys.stderr)

    summary = {}
    print("%-13s %-22s %11s %11s %11s %7s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread}
            print("%-13s %-22s %11.4f %11.4f %11.4f %7.3f %6.2f" % (
                w, name, med, q1, q3, spread, bounds.get(name, 0)))
        print("%-13s failed share per run: %s" % (w, sorted(shares[w])))

    if args.traced:
        print("tracing overhead (traced value / untraced median - 1):")
        for w in workloads:
            _, traced = run(w, args.seed0, args.seconds, 1)
            for name, m in (traced or {}).items():
                med = summary[w][name]["median"]
                print("%-13s %-22s %+.3f" % (w, name, m["value"] / med - 1))
    print(json.dumps(summary), file=sys.stderr)


if __name__ == "__main__":
    main()
