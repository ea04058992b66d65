#!/usr/bin/env python3
"""Ratios of saved specx benchmark outputs, change over parent.

    python3 specxbench/run.py --workload all > parent.txt  # parent commit
    python3 specxbench/run.py --workload all > change.txt  # changed tree
    python3 tools/bench_ratio.py parent.txt change.txt

Reads the last line of each file, the JSON summary that run.py prints
last, and prints both values and change/parent for every metric (named
`workload.metric` in an `--workload all` run). A metric missing on one
side, or zero on the parent's, gets no ratio.

    python3 tools/bench_ratio.py --paired P_01 ... P_N C_01 ... C_N

takes N parent outputs and then N change outputs, pair i being
(P_i, C_i). For each metric on every run it prints the parent's
quartiles and median, the change's median, the ratio of the medians, the
pairs the change won (ties count for neither) and whether the gain rule
holds: at least ten pairs, at least nine tenths of them won, and a median
gap wider than the parent's interquartile distance. Whether lower or
higher is better comes from BENCHMARK.json; unlisted metrics count lower.
Quartiles are statistics.quantiles' inclusive ones. Standard library only.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")


def last_json(path):
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: no output")
    return json.loads(lines[-1])


def ratios(parent, change):
    """Rows (metric, unit, parent value, change value, ratio or None)."""
    p, c = parent["metrics"], change["metrics"]
    rows = []
    for name in sorted(set(p) | set(c)):
        a = p.get(name, {}).get("value")
        b = c.get(name, {}).get("value")
        ratio = b / a if a and b is not None else None
        rows.append((name, (p.get(name) or c[name])["unit"], a, b, ratio))
    return rows


def directions(path=BENCHMARK):
    """Metric name -> "lower" or "higher", as BENCHMARK.json lists it."""
    with open(path) as fh:
        doc = json.load(fh)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in doc[key]}


def paired(parents, changes, better):
    """Rows (metric, unit, parent q25, median, q75, change median, ratio
    or None, pairs won, gain rule holds) for the metrics every run has.

    `better` maps a metric, with or without its `workload.` prefix, to
    "lower" or "higher"; pair i is (parents[i], changes[i]).
    """
    runs = parents + changes
    names = set.intersection(*(set(doc["metrics"]) for doc in runs))
    rows = []
    for name in sorted(names):
        p = [doc["metrics"][name]["value"] for doc in parents]
        c = [doc["metrics"][name]["value"] for doc in changes]
        direction = better.get(name) or better.get(name.partition(".")[2])
        sign = -1.0 if direction == "higher" else 1.0
        q25, med, q75 = statistics.quantiles(p, n=4, method="inclusive")
        c_med = statistics.median(c)
        won = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        holds = (len(p) >= 10 and won >= 0.9 * len(p)
                 and sign * (med - c_med) > q75 - q25)
        rows.append((name, parents[0]["metrics"][name]["unit"], q25, med,
                     q75, c_med, c_med / med if med else None, won, holds))
    return rows


def _fmt(x, width):
    return f"{'-':>{width}s}" if x is None else f"{x:{width}.6g}"


def _print_paired(paths):
    n = len(paths) // 2
    parents = [last_json(path) for path in paths[:n]]
    changes = [last_json(path) for path in paths[n:]]
    for side, docs in (("parent", parents), ("change", changes)):
        print(f"{side}: {sum(doc['correct'] for doc in docs)}/{n} correct, "
              f"failed {sum(doc['failed'] for doc in docs)}"
              f"/{sum(doc['attempted'] for doc in docs)}")
    print(f"{'metric':34s} {'unit':>6s} {'parent q25':>11s} "
          f"{'median':>11s} {'q75':>11s} {'change med':>11s} "
          f"{'change/parent':>14s} {'won':>6s} gain")
    for name, unit, q25, med, q75, c_med, ratio, won, holds in paired(
            parents, changes, directions()):
        print(f"{name:34s} {unit:>6s} {_fmt(q25, 11)} {_fmt(med, 11)} "
              f"{_fmt(q75, 11)} {_fmt(c_med, 11)} {_fmt(ratio, 14)} "
              f"{f'{won}/{n}':>6s} {'yes' if holds else 'no'}")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--paired"]:
        if len(args) < 5 or len(args) % 2 == 0:
            print("usage: bench_ratio.py --paired PARENT_1 .. PARENT_N "
                  "CHANGE_1 .. CHANGE_N (N >= 2)", file=sys.stderr)
            return 2
        _print_paired(args[1:])
        return 0
    if len(args) != 2:
        print("usage: bench_ratio.py PARENT_OUTPUT CHANGE_OUTPUT",
              file=sys.stderr)
        return 2
    parent, change = last_json(args[0]), last_json(args[1])
    for side, doc in (("parent", parent), ("change", change)):
        print(f"{side}: correct={doc['correct']} "
              f"failed={doc['failed']}/{doc['attempted']}")
    print(f"{'metric':34s} {'unit':>6s} {'parent':>12s} {'change':>12s} "
          f"{'change/parent':>14s}")
    for name, unit, a, b, ratio in ratios(parent, change):
        print(f"{name:34s} {unit:>6s} {_fmt(a, 12)} {_fmt(b, 12)} "
              f"{_fmt(ratio, 14)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
