#!/usr/bin/env python3
"""Run the benchmark over several seeds and save one result set.

    python3 perfbench/collect.py --out results/parent --seeds 1-10 \
        [--workloads local-replay,record-mix] [--trace 0]

Writes each run's standard output to OUT/<workload>-<seed>.txt (the
files perfbench/compare.py reads) and prints, per workload and
end-to-end metric, the median and the quartile spread (IQR / median)
next to the metric's bound from BENCHMARK.json. Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    os.makedirs(args.out, exist_ok=True)
    for workload in workloads:
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            path = os.path.join(args.out, "%s-%d.txt" % (workload, seed))
            with open(path, "w") as f:
                f.write(proc.stdout)
            status = "ok" if proc.returncode == 0 else \
                "FAILED (exit %d)" % proc.returncode
            print("%s seed %d: %s" % (workload, seed, status), flush=True)

    runs = compare.load_runs(args.out)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload in workloads:
        by_metric = runs.get((workload, args.trace), {})
        for name, values in sorted(by_metric.items()):
            if name.startswith("__") or len(values) < 2:
                continue
            med = statistics.median(values)
            spread = compare.spread(values)
            bound = bounds.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                note = "bound %.3f%s" % (
                    bound, "" if spread < bound / 3 else "  <-- spread "
                    "not below a third of the bound")
            print("%-14s %-40s median %-12.6g spread %.4f  %s"
                  % (workload, name, med, spread, note))


if __name__ == "__main__":
    main()
