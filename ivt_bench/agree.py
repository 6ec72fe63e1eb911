#!/usr/bin/env python3
"""Compare two ivt_bench result files against the bounds in BENCHMARK.json.

    python3 ivt_bench/agree.py A.json B.json

A and B are records written by `run.py --out` (for example two untraced
runs of `--workload all` at one seed, back to back). For every workload x
end-to-end metric present in both, it reports

  agree       B's value is no worse than A's by more than the bound
  worse       B's value is worse than A's by more than the bound
  unresolved  A's or B's value could move by more than the bound from the
              luck of its samples alone, so the two cannot be told apart:
              its resampled spread (distance between the quartiles of the
              value over bootstrap resamples of the run's samples, as a
              share of their median) is wider than the bound

and exits 0 only when everything agrees. python3 standard library only.
"""
import argparse
import json
import os
import sys


def verdict(a, b, better, bound):
    """agree / worse / unresolved for one metric of two result records."""
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    return "worse" if change > bound else "agree"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--manifest", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.manifest) as f:
        metrics = json.load(f)["end_to_end"]
    with open(args.a) as f:
        a = json.load(f)["workloads"]
    with open(args.b) as f:
        b = json.load(f)["workloads"]
    counts = {"agree": 0, "worse": 0, "unresolved": 0}
    print("%-14s %-22s %12s %12s %7s %7s  %s" % (
        "workload", "metric", "A", "B", "change", "bound", "verdict"))
    for workload in sorted(set(a) & set(b)):
        for m in metrics:
            ma = a[workload]["metrics"].get(m["name"])
            mb = b[workload]["metrics"].get(m["name"])
            if ma is None or mb is None:
                continue
            v = verdict(ma, mb, m["better"], m["bound"])
            counts[v] += 1
            print("%-14s %-22s %12.6g %12.6g %+6.1f%% %6.1f%%  %s" % (
                workload, m["name"], ma["value"], mb["value"],
                100.0 * (mb["value"] - ma["value"]) / ma["value"],
                100.0 * m["bound"], v))
    print("agree %(agree)d, worse %(worse)d, unresolved %(unresolved)d" % counts)
    return 0 if counts["worse"] == counts["unresolved"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
