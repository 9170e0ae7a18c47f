#!/usr/bin/env python3
"""Runs one workload of the xpe end-to-end benchmark.

Builds perfbench/ and the xpe library it links (CMake, Release) into the
build directory, then runs the benchmark binary. Build output goes to
standard error. The last line of standard output is the result object,
holding exactly the metrics BENCHMARK.json lists for the mode:
end_to_end untraced, per_layer traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build directory is $CARGO_TARGET_DIR when set, else .bench_build at
the repository root. Traced runs also write their spans to
<build dir>/traces/<workload>-seed<n>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query-auction", "ingest-swap")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "xpe_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(build_dir, "xpe_perfbench")
    return exe if os.path.exists(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120 or args.seed < 0:
        parser.error("--seconds must be 1..120 and --seed non-negative")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    result = report(lines[-1], args.trace)
    if result is None:
        print("perfbench: xpe_perfbench printed no result", file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(result))
    return proc.returncode


def report(line, trace):
    """The binary's result with exactly the metrics BENCHMARK.json lists
    for this mode (end_to_end untraced, per_layer traced); None when the
    line is not a result or lacks one of them."""
    try:
        result = json.loads(line)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            wanted = json.load(f)["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    except (ValueError, KeyError, OSError):
        return None
    return result


if __name__ == "__main__":
    sys.exit(main())
