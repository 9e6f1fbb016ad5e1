#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmark/compare.py BASE NEW          exit 0 unless something got worse
    python3 benchmark/compare.py --same BASE NEW   exit 0 only if the sets agree
    python3 benchmark/compare.py RUNS              medians and quartiles of one set

Each argument is a directory of result files written by `ideval_bench
--json_out` (benchmark/run.sh puts them under build-benchmark/). For every
workload and end-to-end metric the report gives each side's median and
quartiles, then applies the direction and bound from BENCHMARK.json:

  better / worse  the median moved past the bound
  unchanged       it moved less than the bound
  unresolved      a side's quartile spread is wider than the bound, so the
                  bound cannot be resolved (unless every run of one side
                  beats every run of the other)

setup_s is judged on its median alone, as the benchmark's acceptance rule
does. With --same a move past the bound in either direction, or an
unresolved metric, means the two sets disagree. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["per_layer"]


def load_runs(directory):
    """{workload: [metrics dict, ...]} for every result file in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        try:
            with open(path) as f:
                result = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(result, dict) or "workload" not in result:
            continue  # Chrome traces and other files.
        if not result.get("correct", False):
            sys.exit(f"{path}: run was not correct: {result.get('errors')}")
        runs.setdefault(result["workload"], []).append(result["metrics"])
    if not runs:
        sys.exit(f"{directory}: no result files")
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(name, metric, base, new):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    _, mb, _ = quartiles(base)
    _, mn, _ = quartiles(new)
    change = (mn - mb) / abs(mb) if mb else 0.0
    worse_by = change if lower else -change
    if name != "setup_s" and max(spread(base), spread(new)) > bound:
        new_better = (max(new) < min(base)) if lower else (min(new) > max(base))
        new_worse = (min(new) > max(base)) if lower else (max(new) < min(base))
        if new_better:
            return change, "better"
        if new_worse:
            return change, "worse"
        return change, "unresolved"
    if worse_by > bound:
        return change, "worse"
    if -worse_by > bound:
        return change, "better"
    return change, "unchanged"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def summarize(directory, e2e):
    runs = load_runs(directory)
    print("| workload | metric | unit | runs | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in sorted(runs):
        metrics = runs[workload]
        names = [n for n in e2e if n in metrics[0]]
        names += [n for n in metrics[0] if n not in e2e]
        for name in names:
            values = [m[name]["value"] for m in metrics if name in m]
            q1, med, q3 = quartiles(values)
            note = ""
            if name in e2e and name != "setup_s":
                note = " (ok)" if spread(values) < e2e[name]["bound"] / 3 else (
                    " (above bound/3)")
            print(f"| {workload} | {name} | {metrics[0][name]['unit']} | "
                  f"{len(values)} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{100 * spread(values):.2f}%{note} |")
    return 0


def compare(base_dir, new_dir, same, e2e):
    base, new = load_runs(base_dir), load_runs(new_dir)
    bad = 0
    print(f"{'workload':22} {'metric':18} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"{workload:22} missing on one side")
            bad += 1
            continue
        for name, metric in e2e.items():
            b = [m[name]["value"] for m in base[workload] if name in m]
            n = [m[name]["value"] for m in new[workload] if name in m]
            if not b or not n:
                continue  # Trace-mode runs carry per-layer metrics only.
            change, v = verdict(name, metric, b, n)
            failed = v in ("worse", "better", "unresolved") if same else (
                v == "worse")
            bad += failed
            print(f"{workload:22} {name:18} {fmt(b):34} {fmt(n):34} "
                  f"{100 * change:+7.2f}% {100 * metric['bound']:5.1f}%  {v}")
    print("agree" if same and not bad else
          "disagree" if same else
          "no regression" if not bad else "regression")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--same", action="store_true",
                        help="both sets ran the same commit; they must agree")
    parser.add_argument("sets", nargs="+", metavar="DIR")
    args = parser.parse_args()
    e2e, _ = load_spec()
    if len(args.sets) == 1 and not args.same:
        return summarize(args.sets[0], e2e)
    if len(args.sets) != 2:
        parser.error("give one directory to summarize or two to compare")
    return compare(args.sets[0], args.sets[1], args.same, e2e)


if __name__ == "__main__":
    sys.exit(main())
