#!/usr/bin/env python3
"""Compare two benchmark result sets against the benchmark's bounds.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark F]

Each directory holds saved standard outputs of perfbench/run.py (see
perfbench/collect.py), any number of workloads and seeds. For every
end-to-end metric of BENCHMARK.json and every workload, it reports:

  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  either side's quartile spread (IQR / median) is wider
              than the bound, unless every change run beats every
              parent run;
  better      the change's median is better by more than the parent's
              own spread and the change wins at least 9 in 10 of the
              runs paired by seed;
  unchanged   otherwise.

Exits 1 when anything is worse or unresolved. It also says whether the
change set includes a held-out seed (see README.md).
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """{(workload, trace): {metric: [values in seed order]}} plus seeds."""
    runs = {}
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if not os.path.isfile(path):
            continue
        facts, result = parse_run(path)
        if facts is None or result is None:
            continue
        key = (facts["workload"], facts.get("trace", 0))
        slot = runs.setdefault(key, {})
        slot.setdefault("__seeds__", []).append(facts["seed"])
        slot.setdefault("__held_out__", []).append(facts.get("held_out"))
        for name, metric in result["metrics"].items():
            slot.setdefault(name, []).append(metric["value"])
    return runs


def parse_run(path):
    facts = result = None
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    for line in lines:
        if line.startswith("facts "):
            facts = json.loads(line[len("facts "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return facts, result


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def gain(parent, change, better):
    """Relative improvement of change over parent (positive = better)."""
    if parent == 0:
        return 0.0
    rel = (change - parent) / abs(parent)
    return rel if better == "higher" else -rel


def verdict(parent, change, metric):
    bound = metric["bound"]
    better = metric["better"]
    mp, mc = statistics.median(parent["v"]), statistics.median(change["v"])
    sp, sc = spread(parent["v"]), spread(change["v"])
    g = gain(mp, mc, better)
    if better == "higher":
        dominates = min(change["v"]) > max(parent["v"])
    else:
        dominates = max(change["v"]) < min(parent["v"])
    if max(sp, sc) > bound:
        return ("better" if dominates else "unresolved"), mp, mc, g
    if g < -bound:
        return "worse", mp, mc, g
    paired = [(p, c) for s, p in zip(parent["s"], parent["v"])
              for t, c in zip(change["s"], change["v"]) if s == t]
    if not paired:
        paired = list(zip(parent["v"], change["v"]))
    wins = sum(1 for p, c in paired if gain(p, c, better) > 0)
    if g > sp and paired and wins >= 0.9 * len(paired):
        return "better", mp, mc, g
    return "unchanged", mp, mc, g


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)

    counts = {}
    print("%-14s %-18s %12s %12s %8s  %s" % (
        "workload", "metric", "parent", "change", "gain", "verdict"))
    for w in bench["workloads"]:
        key = (w["name"], 0)
        if key not in parent or key not in change:
            print("%-14s (no runs on one side)" % w["name"])
            counts["unresolved"] = counts.get("unresolved", 0) + 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = {"v": parent[key].get(name, []),
                 "s": parent[key]["__seeds__"]}
            c = {"v": change[key].get(name, []),
                 "s": change[key]["__seeds__"]}
            if not p["v"] or not c["v"]:
                v, mp, mc, g = "unresolved", float("nan"), float("nan"), 0
            else:
                v, mp, mc, g = verdict(p, c, metric)
            counts[v] = counts.get(v, 0) + 1
            print("%-14s %-18s %12.6g %12.6g %+7.2f%%  %s" % (
                w["name"], name, mp, mc, 100 * g, v))
    held = any(h for slot in change.values()
               for h in slot.get("__held_out__", []))
    print("summary: " + ", ".join("%d %s" % (n, v)
                                   for v, n in sorted(counts.items())))
    print("change set %s a held-out seed" %
          ("includes" if held else "does not include"))
    sys.exit(1 if counts.get("worse") or counts.get("unresolved") else 0)


if __name__ == "__main__":
    main()
