#!/usr/bin/env python3
"""Compare two sets of usys_bench runs with the noise-aware rules.

    python3 benchmark/compare.py BASE NEW

BASE and NEW are run records (files, or directories of *.json files)
written by `run.py --save` or `usys_bench --out`; traced, set-up-only and
smoke records are ignored. Runs pair up by workload and seed, in order.

For each (workload, end-to-end metric) it prints each side's median and
quartiles and the pairs the new side won, then a verdict:

  unresolved  either side's spread (IQR / median) is wider than the
              metric's bound, unless every new run beats every base run
  regression  the new median is worse than the base median by more than
              the bound
  gain        the new side won at least 9 in 10 pairs and the medians
              differ by more than the base side's IQR
  same        none of the above

It refuses (exit 2) to compare runs whose host fingerprints differ and
names the field, and it reports simulated-result digests that differ for
the same workload and seed. Exit 1 on any regression or digest mismatch.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("bench") != "usys_bench" or rec.get("traced") or \
                rec.get("setup_only") or rec.get("smoke"):
            continue
        runs.append(rec)
    return runs


def fingerprint_mismatch(runs):
    """(field, value a, value b) of the first differing fingerprint."""
    ref = runs[0]["fingerprint"]
    for rec in runs[1:]:
        fp = rec["fingerprint"]
        for key in sorted(set(ref) | set(fp)):
            if ref.get(key) != fp.get(key):
                return key, ref.get(key), fp.get(key)
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, better, bound):
    """Verdict plus the numbers behind it for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    bmed, nmed = statistics.median(base), statistics.median(new)
    bq1, bq3 = quartiles(base)
    nq1, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if sign * (n - b) > 0)
    worse = -sign * (nmed - bmed) / bmed if bmed else 0.0
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (nq3 - nq1) / nmed if nmed else 0.0)
    every_new_better = all(sign * (n - b) > 0 for b in base for n in new)
    if spread > bound and not every_new_better:
        v = "unresolved"
    elif worse > bound:
        v = "regression"
    elif won >= 0.9 * len(pairs) and abs(nmed - bmed) > (bq3 - bq1) \
            and worse < 0:
        v = "gain"
    else:
        v = "same"
    return v, dict(bmed=bmed, bq1=bq1, bq3=bq3, nmed=nmed, nq1=nq1, nq3=nq3,
                   won=won, pairs=len(pairs), worse=worse, spread=spread)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare.py: no untraced run records on one side",
              file=sys.stderr)
        return 2
    mismatch = fingerprint_mismatch(base + new)
    if mismatch:
        key, a, b = mismatch
        print(f"compare.py: refusing: fingerprint field '{key}' differs: "
              f"{a!r} vs {b!r}", file=sys.stderr)
        return 2

    def by_workload(runs):
        out = {}
        for rec in sorted(runs, key=lambda r: r["seed"]):
            out.setdefault(rec["workload"], []).append(rec)
        return out

    bw, nw = by_workload(base), by_workload(new)
    bad = False
    print(f"{'workload':11s} {'metric':12s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'worse':>7s} {'won':>6s} verdict")
    for workload in sorted(set(bw) & set(nw)):
        b_runs, n_runs = bw[workload], nw[workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            v, s = verdict(bv, nv, m["better"], m["bound"])
            bad = bad or v == "regression"
            print(f"{workload:11s} {name:12s} "
                  f"{s['bmed']:12.5g} [{s['bq1']:9.5g}, {s['bq3']:9.5g}] "
                  f"{s['nmed']:12.5g} [{s['nq1']:9.5g}, {s['nq3']:9.5g}] "
                  f"{100 * s['worse']:6.2f}% {s['won']:2d}/{s['pairs']:<3d} "
                  f"{v}")
        digests = {}
        for r in b_runs + n_runs:
            digests.setdefault(r["seed"], set()).add(r["digest"])
        for seed, found in sorted(digests.items()):
            if len(found) > 1:
                bad = True
                print(f"{workload:11s} seed {seed}: simulated-result digests "
                      f"differ: {sorted(found)}")
    missing = sorted(set(bw) ^ set(nw))
    if missing:
        print(f"compare.py: workloads on one side only: {missing}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
