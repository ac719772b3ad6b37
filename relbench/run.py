#!/usr/bin/env python3
"""Build and run one workload of the relserve benchmark.

    python3 relbench/run.py --workload point-net|table-spill|ingest-serve \
        --seed N --seconds S --trace 0|1
    python3 relbench/run.py --selftest

Run from the repository root. The first run configures and builds the
relserve library (from src/) and the relbench binary under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
untraced, the per-layer metrics (from summarize.py) traced.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import summarize  # noqa: E402

RUN_TIMEOUT_S = 170


def fail(msg):
    print("relbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "relbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no relserve sources at %s/src; run from a checkout of the "
             "repository" % ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "relbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "relbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload not in summarize.WORKLOADS:
        fail("--workload must be one of " + ", ".join(summarize.WORKLOADS))

    binary = build()
    name = "selftest" if args.selftest else args.workload
    workdir = os.path.join(build_dir(), "work", "%s-%d" % (name, os.getpid()))
    trace_out = workdir + ".trace"
    cmd = [binary, "--workdir", workdir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (name, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.selftest:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail("%s exited with code %d" % (name, proc.returncode))
    result = json.loads(lines[-1])
    if args.trace:
        try:
            header, spans = summarize.load(trace_out)
        finally:
            if os.path.exists(trace_out):
                os.remove(trace_out)
        traced = dict(header["e2e"])
        traced.update({"client." + k: v for k, v in header["client"].items()})
        print("traced end-to-end: " + json.dumps(traced), file=sys.stderr)
        result["metrics"] = summarize.per_layer(header, spans,
                                                out=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
