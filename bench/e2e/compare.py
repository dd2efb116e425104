#!/usr/bin/env python3
"""Compares end-to-end benchmark results of two commits.

    bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]

Each directory holds one file per run: the standard output of
`bench/e2e/run.sh --workload W --seed S` (or of `s3vcd_e2e`). A file's last
line is the result object and an earlier `# provenance {...}` line names
its workload and seed. Runs of the same workload and seed on both sides
form a pair; run the two commits alternately, at least ten pairs per
workload.

For every workload and metric it prints each side's median and quartiles,
the fraction of pairs the change won, and a verdict:

  improved    the change won at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the distance
              between the parent's quartiles; never with fewer than ten
              pairs;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  within the bound, but the parent's own quartile spread is
              wider than the bound and not every change run beats every
              parent run;
  unchanged   otherwise.

Per-layer metrics (traced runs) have no bound and get no verdict. Exits 1
on a regression, on an incorrect run, or when the change fails more
operations than the parent; exits 2 on unusable input.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10


def load_runs(directory):
    """Returns {(workload, trace, seed): result dict with provenance}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
        provenance = None
        for line in lines:
            if line.startswith("# provenance "):
                provenance = json.loads(line[len("# provenance "):])
        if provenance is None or not lines:
            continue
        result = json.loads(lines[-1])
        result["provenance"] = provenance
        key = (provenance["workload"], provenance["trace"], provenance["seed"])
        runs[key] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(parent, change, better, bound, pairs):
    """The verdict for one metric; parent/change are paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    base = abs(p_med) if p_med else 1.0
    worse = -sign * (c_med - p_med) / base
    if (pairs >= MIN_PAIRS and wins >= 0.9 * pairs and sign * (c_med - p_med) > 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved", wins
    if worse > bound:
        return "regressed", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p_q3 - p_q1) / base > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    parent = load_runs(args.parent_dir)
    change = load_runs(args.change_dir)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no run of one side has a partner on the other", file=sys.stderr)
        return 2

    failed = False
    for side, runs in (("parent", parent), ("change", change)):
        for key in keys:
            if not runs[key]["correct"]:
                print(f"{side} run {key} is not correct")
                failed = True
    parent_failed = sum(parent[k]["failed"] for k in keys)
    change_failed = sum(change[k]["failed"] for k in keys)
    if change_failed > parent_failed:
        print(f"failed operations: parent {parent_failed}, change {change_failed}")
        failed = True
    for field in ("cpu_model", "nproc", "scan_kernel", "build_type"):
        seen = {r["provenance"].get(field) for r in list(parent.values()) + list(change.values())}
        if len(seen) > 1:
            print(f"warning: runs differ in {field}: {sorted(map(str, seen))}")

    groups = sorted({(w, t) for w, t, _ in keys})
    print(f"{'workload':16s} {'metric':34s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for workload, trace in groups:
        seeds = [s for w, t, s in keys if (w, t) == (workload, trace)]
        pairs = len(seeds)
        if pairs < MIN_PAIRS:
            print(f"warning: {workload} has {pairs} pairs; a gain needs {MIN_PAIRS}")
        runs = [side[(workload, trace, s)] for side in (parent, change) for s in seeds]
        names = [n for n in runs[0]["metrics"] if all(n in r["metrics"] for r in runs)]
        missing = set().union(*(r["metrics"] for r in runs)) - set(names)
        if missing:
            print(f"warning: {workload} metrics missing from some runs: {sorted(missing)}")
        for name in names:
            p = [parent[(workload, trace, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, trace, s)]["metrics"][name]["value"] for s in seeds]
            metric = bounds.get(name)
            if trace == 0 and metric is not None:
                result, wins = verdict(p, c, metric["better"], metric["bound"], pairs)
                failed |= result == "regressed"
                wins_text = f"{wins}/{pairs}"
            else:
                result, wins_text = "-", ""
            print(f"{workload:16s} {name:34s} {summary(p):>34s} "
                  f"{summary(c):>34s} {wins_text:>7s}  {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
