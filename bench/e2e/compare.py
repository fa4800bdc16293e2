#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

usage: compare.py <set-a> <set-b> [--bounds BENCHMARK.json]

A set is a directory of results documents written by `bench_e2e --out`
(run.sh writes one subdirectory per seed); the untraced documents of every
seed are pooled per workload.  For each pair of end-to-end metric and
workload this prints the median of each set, their ratio b/a, the bound
from BENCHMARK.json and, with two or more runs per set, each set's spread
(the distance between the quartiles as a share of the median).

A pair is out of bound when set b's median is worse than set a's by more
than the bound, or when either set's spread exceeds the bound (setup_s
excepted: only its median is held to the bound).

Exit status: 0 when every pair is within its bound; 1 when some pair is
out of bound; 2, comparing nothing, when the sets differ in build type,
nproc or CPU model, because wall times from different builds or hosts do
not compare.
"""
import argparse
import json
import pathlib
import statistics
import sys

# Fields that must match before wall times compare.
GUARDED = {
    "build_type": lambda doc: doc["provenance"]["build_type"],
    "nproc": lambda doc: doc["nproc"],
    "cpu_model": lambda doc: doc["provenance"]["cpu_model"],
}

# The one metric whose spread is not held to its bound.
SPREAD_EXEMPT = {"setup_s"}


def load_set(directory):
    """{workload: [document, ...]} of the untraced runs under directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob("*.json")):
        if path.name.endswith((".traced.json", ".chrome.json")):
            continue
        doc = json.loads(path.read_text())
        if doc.get("trace") is False:
            runs.setdefault(doc["workload"], []).append(doc)
    if not runs:
        sys.exit(f"compare.py: no untraced results under {directory}")
    return runs


def check_comparable(a, b):
    docs = [doc for runs in (a, b) for group in runs.values() for doc in group]
    mixed = False
    for key, field in GUARDED.items():
        values = sorted({str(field(doc)) for doc in docs})
        if len(values) > 1:
            print(f"compare.py: refusing to compare: {key} differs: {values}",
                  file=sys.stderr)
            mixed = True
    if mixed:
        sys.exit(2)


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / a
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--bounds", default="BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads(pathlib.Path(args.bounds).read_text())
    a, b = load_set(args.set_a), load_set(args.set_b)
    check_comparable(a, b)

    out_of_bound = 0
    print(f"{'workload':20} {'metric':24} {'median a':>13} {'median b':>13}"
          f" {'b/a':>6} {'bound':>5} {'spread a':>8} {'spread b':>8}")
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print(f"{workload:20} missing from one set")
            out_of_bound += 1
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [d["metrics"][name]["value"] for d in a[workload]]
            vb = [d["metrics"][name]["value"] for d in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            why = []
            if worse_by(ma, mb, metric["better"]) > bound:
                why.append("median")
            if name not in SPREAD_EXEMPT and any(
                    s is not None and s > bound for s in (sa, sb)):
                why.append("spread")
            out_of_bound += bool(why)
            fmt = lambda s: "-" if s is None else f"{s:.3f}"
            print(f"{workload:20} {name:24} {ma:13.6g} {mb:13.6g}"
                  f" {mb / ma if ma else float('nan'):6.3f} {bound:5.2f}"
                  f" {fmt(sa):>8} {fmt(sb):>8}"
                  f"{'  OUT OF BOUND: ' + ', '.join(why) if why else ''}")
    print(f"{out_of_bound} pair(s) out of bound")
    return 1 if out_of_bound else 0


if __name__ == "__main__":
    sys.exit(main())
