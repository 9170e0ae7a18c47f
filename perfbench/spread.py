#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

For every metric: the median, the quartiles (statistics.quantiles, n=4)
and the spread, the interquartile distance as a share of the median.
The benchmark is steady when every end-to-end spread is well inside the
metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload ingest-swap --seeds 1-10 \
        [--seconds 15] [--trace 0] [--json out.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    extra = {"samples": {}, "metrics": {}}
    for line in lines:
        for key in extra:
            if line.startswith(key + ": "):
                extra[key] = json.loads(line[len(key) + 2:])
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit("seed %d failed (exit %d)" % (seed, proc.returncode))
    # xpe_perfbench also prints the metrics BENCHMARK.json does not gate;
    # report them too.
    for name, value in extra["metrics"].items():
        result["metrics"].setdefault(name, {"value": value})
    return result, extra["samples"]


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", default=None, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, counts, attempted, failed = {}, {}, [], []
    for seed in args.seeds:
        result, samples = run_once(args.workload, seed, seconds, args.trace)
        attempted.append(result["attempted"])
        failed.append(result["failed"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            counts.setdefault(name, []).append(samples.get(name))
        print("seed %d: %s" % (seed, {k: round(v["value"], 4)
                                      for k, v in result["metrics"].items()}),
              file=sys.stderr)

    report = {"workload": args.workload, "seeds": args.seeds,
              "seconds": seconds, "attempted": attempted, "failed": failed,
              "metrics": {}}
    print("%-34s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                          "spread", "bound"))
    for name, vals in values.items():
        s = summarize(vals)
        if any(c is not None for c in counts[name]):
            s["samples_median"] = statistics.median(
                c for c in counts[name] if c is not None)
        report["metrics"][name] = s
        bound = bounds.get(name)
        print("%-34s %14.4f %14.4f %14.4f %8.3f %6s" % (
            name, s["median"], s["q1"], s["q3"], s["spread"],
            "" if bound is None else bound))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
