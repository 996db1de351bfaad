#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py --base base/*.out --head head/*.out

Each file holds the standard output of one or more runs of
perfbench/run.py (a directory stands for every file in it). A run's
fingerprint line names its workload; its last line holds the metrics. For
every workload and metric the table shows each side's median and
quartiles, the change of the head median against the base median, the
base's own spread (quartile distance over median) and the metric's bound
from BENCHMARK.json (end-to-end metrics only; per-layer metrics have none).

Verdicts: "worse" when the head median is worse than the base median by
more than the bound, "unresolved" when the base's spread is wider than the
bound (a change that small cannot be told from noise), "ok" otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def expand(paths):
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                yield os.path.join(path, name)
        else:
            yield path


def load_runs(paths):
    """Returns {workload: {metric: [values]}} over every run in `paths`."""
    runs = {}
    for path in expand(paths):
        workload = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "fingerprint" in obj:
                    workload = obj["fingerprint"]["workload"]
                elif "metrics" in obj and workload is not None:
                    per = runs.setdefault(workload, {})
                    for name, m in obj["metrics"].items():
                        per.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(meta, base, head):
    bound = meta.get("bound")
    if bound is None:
        return ""
    b_med, b_q1, b_q3 = summary(base)
    h_med = summary(head)[0]
    if b_med == 0:
        return "unresolved"
    spread = (b_q3 - b_q1) / abs(b_med)
    worse = (h_med - b_med) / abs(b_med)
    if meta["better"] == "higher":
        worse = -worse
    if worse > bound:
        return "worse"
    if spread > bound:
        return "unresolved"
    return "ok"


def fmt(x):
    return f"{x:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    meta = load_bounds()
    base, head = load_runs(args.base), load_runs(args.head)
    header = ("workload", "metric", "base median [q1, q3]",
              "head median [q1, q3]", "change", "base spread", "bound",
              "verdict")
    rows = [header]
    for workload in sorted(set(base) & set(head)):
        for name in sorted(set(base[workload]) & set(head[workload])):
            b, h = base[workload][name], head[workload][name]
            bm, bq1, bq3 = summary(b)
            hm, hq1, hq3 = summary(h)
            info = meta.get(name, {})
            rows.append((
                workload, name,
                f"{fmt(bm)} [{fmt(bq1)}, {fmt(bq3)}] n={len(b)}",
                f"{fmt(hm)} [{fmt(hq1)}, {fmt(hq3)}] n={len(h)}",
                f"{(hm - bm) / abs(bm):+.1%}" if bm else "n/a",
                f"{(bq3 - bq1) / abs(bm):.1%}" if bm else "n/a",
                f"{info['bound']:.0%}" if "bound" in info else "-",
                verdict(info, b, h),
            ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0 if len(rows) > 1 else 1


if __name__ == "__main__":
    sys.exit(main())
