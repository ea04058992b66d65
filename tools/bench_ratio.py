#!/usr/bin/env python3
"""Ratios of two saved specx benchmark outputs, change over parent.

    python3 specxbench/run.py --workload all > parent.txt  # parent commit
    python3 specxbench/run.py --workload all > change.txt  # changed tree
    python3 tools/bench_ratio.py parent.txt change.txt

Reads the last line of each file, the JSON summary that run.py prints
last, and prints both values and change/parent for every metric (named
`workload.metric` in an `--workload all` run). A metric missing on one
side, or zero on the parent's, gets no ratio. Standard library only.
"""

import json
import sys


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


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
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

    def fmt(x, width):
        return f"{'-':>{width}s}" if x is None else f"{x:{width}.6g}"

    for name, unit, a, b, ratio in ratios(parent, change):
        print(f"{name:34s} {unit:>6s} {fmt(a, 12)} {fmt(b, 12)} "
              f"{fmt(ratio, 14)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
