#!/usr/bin/env python3
"""Summarize benchmark traces: per-layer self time and call counts.

    python3 perfbench/trace_report.py [trace.tsv ...]

With no arguments it reads every .bench_out/trace-*.tsv. A trace is what
`perfbench/run.py --trace 1` writes: one span per call the benchmark made
into a layer, with columns workload, name, start_ns, end_ns, id, parent and
request. A span's self time is its duration minus the part of it that its
child spans cover. Spans are grouped by name (the layer and call, e.g.
core.pipeline.predict_one) and by module (the first dotted component).
Standard library only.
"""

import csv
import glob
import sys
from collections import defaultdict


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def load(paths):
    spans = defaultdict(list)  # workload -> rows
    for path in paths:
        with open(path, newline="") as f:
            for row in csv.DictReader(f, delimiter="\t"):
                spans[row["workload"]].append((
                    row["name"], int(row["start_ns"]), int(row["end_ns"]),
                    int(row["id"]), int(row["parent"]), int(row["request"])))
    return spans


def summarize(rows):
    """Per span name: count, total and self nanoseconds, requests seen."""
    children = defaultdict(list)
    for name, s, e, sid, parent, req in rows:
        if parent:
            children[parent].append((s, e))
    stats = defaultdict(lambda: [0, 0, 0, set()])
    for name, s, e, sid, parent, req in rows:
        st = stats[name]
        st[0] += 1
        st[1] += e - s
        st[2] += (e - s) - covered(s, e, children.get(sid, ()))
        if req:
            st[3].add(req)
    return stats


def main(argv):
    paths = argv[1:] or sorted(glob.glob(".bench_out/trace-*.tsv"))
    if not paths:
        print("no trace files (run perfbench/run.py with --trace 1 first)", file=sys.stderr)
        return 1
    for workload, rows in sorted(load(paths).items()):
        stats = summarize(rows)
        total_self = sum(st[2] for st in stats.values()) or 1
        print(f"== {workload}: {len(rows)} spans")
        print(f"  {'span':42s} {'count':>8s} {'total_ms':>11s} {'self_ms':>11s} "
              f"{'self_us/call':>12s} {'self%':>6s} {'requests':>8s}")
        for name, (n, tot, self_ns, reqs) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:42s} {n:8d} {tot / 1e6:11.3f} {self_ns / 1e6:11.3f} "
                  f"{self_ns / n / 1e3:12.2f} {100 * self_ns / total_self:6.1f} {len(reqs):8d}")
        modules = defaultdict(lambda: [0, 0])
        for name, (n, _, self_ns, _) in stats.items():
            m = modules[name.split(".")[0]]
            m[0] += n
            m[1] += self_ns
        print(f"  {'module':42s} {'count':>8s} {'self_ms':>11s} {'self%':>6s}")
        for mod, (n, self_ns) in sorted(modules.items(), key=lambda kv: -kv[1][1]):
            print(f"  {mod:42s} {n:8d} {self_ns / 1e6:11.3f} {100 * self_ns / total_self:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
