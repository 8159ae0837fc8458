#!/usr/bin/env python3
"""Compare two bench artifacts and gate on perf regressions.

    bench_compare.py BASELINE.json CANDIDATE.json [options]

Both files are `--stats-json` / BENCH_*.json documents ({bench,
schema_version, stats{...}}). The nested stats tree is flattened to
dotted keys; the direction of each metric is inferred from its name:

  lower is better   keys ending in _us, _ms, _ns, _s, _bytes, _cycles
  higher is better  keys ending in speedup_x, _gmacs, _throughput,
                    _utilization

A gated metric regresses when its relative change in the "worse"
direction exceeds the threshold (default 0.25 = 25%). Keys matching
neither suffix list are reported when they change but never gate, as
are keys whose baseline value is 0. `kernel.profile_overhead.*` is
skipped by default (A/A noise, not a signal), as is `*.shed_rate` —
the overload phase sheds as much as the retry storm asks it to, so
the rate measures scheduling luck, not daemon quality — and
`*.sparsity_frac`, which echoes the workload's configured activation
sparsity rather than measuring performance. The `sparsity.*.speedup_x`
ratios (dense over sparse input, same fold) gate like any other
speedup.

Options:
  --threshold F        default relative-change gate (0.25)
  --rule GLOB=F        per-metric threshold override (repeatable);
                       F may be `skip` to exempt matching metrics
  --skip GLOB          exempt matching metrics (repeatable)

Exit status: 0 when no gated metric regressed, 1 otherwise (also on a
metric present in the baseline but missing from the candidate). stdlib
only; runs from ctest.
"""

import argparse
import fnmatch
import json
import numbers
import sys

LOWER_BETTER = ("_us", "_ms", "_ns", "_s", "_bytes", "_cycles")
HIGHER_BETTER = ("speedup_x", "_gmacs", "_throughput", "_utilization",
                 ".rps", "hit_rate", "occupancy")
DEFAULT_SKIPS = ("*.profile_overhead.*", "*.shed_rate",
                 "*.sparsity_frac")


def flatten(node, prefix=""):
    """Numeric leaves of a nested stats tree as {dotted key: value}.
    Lists (histogram buckets) are not comparable point-wise; skipped."""
    flat = {}
    if isinstance(node, dict):
        for key, value in node.items():
            flat.update(flatten(value, f"{prefix}.{key}" if prefix
                                else key))
    elif isinstance(node, numbers.Number) and not isinstance(node, bool):
        flat[prefix] = float(node)
    return flat


def direction(key):
    """+1 higher-better, -1 lower-better, 0 ungated."""
    if key.endswith(HIGHER_BETTER):
        return 1
    if key.endswith(LOWER_BETTER):
        return -1
    return 0


def load_stats(path):
    with open(path) as f:
        doc = json.load(f)
    if "stats" not in doc:
        sys.exit(f"bench_compare: {path}: no 'stats' object")
    return doc.get("bench", "?"), flatten(doc["stats"])


def threshold_for(key, rules, default):
    """Most specific (longest) matching --rule glob wins; None = skip."""
    best = None
    for glob, value in rules:
        if fnmatch.fnmatchcase(key, glob):
            if best is None or len(glob) > len(best[0]):
                best = (glob, value)
    return default if best is None else best[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="default relative-change gate "
                             "(default 0.25)")
    parser.add_argument("--rule", action="append", default=[],
                        metavar="GLOB=F",
                        help="per-metric threshold (F may be 'skip')")
    parser.add_argument("--skip", action="append", default=[],
                        metavar="GLOB", help="exempt matching metrics")
    args = parser.parse_args()

    rules = []
    for rule in args.rule:
        glob, sep, value = rule.partition("=")
        if not sep:
            parser.error(f"--rule needs GLOB=F, got {rule!r}")
        rules.append((glob, None if value == "skip" else float(value)))
    for glob in list(args.skip) + list(DEFAULT_SKIPS):
        rules.append((glob, None))

    base_bench, base = load_stats(args.baseline)
    cand_bench, cand = load_stats(args.candidate)
    if base_bench != cand_bench:
        print(f"bench_compare: note: comparing different benches "
              f"({base_bench} vs {cand_bench})", file=sys.stderr)

    regressions = []
    improvements = []
    notes = []
    for key in sorted(set(base) | set(cand)):
        gate = threshold_for(key, rules, args.threshold)
        if key not in cand:
            # Skip-ruled metrics are exempt even when absent: an
            # availability-dependent section (e.g. a SIMD tier the
            # candidate host lacks) must not fail the comparison.
            if gate is None:
                notes.append(f"{key}: missing from candidate "
                             f"(skip-ruled)")
            else:
                regressions.append(f"{key}: missing from candidate "
                                   f"(baseline {base[key]:g})")
            continue
        if key not in base:
            notes.append(f"{key}: new metric ({cand[key]:g})")
            continue
        old, new = base[key], cand[key]
        sign = direction(key)
        if sign == 0 or gate is None or old == 0.0:
            if old != new:
                notes.append(f"{key}: {old:g} -> {new:g} (ungated)")
            continue
        rel = (new - old) / abs(old)
        arrow = f"{key}: {old:g} -> {new:g} ({rel:+.1%}, " \
                f"{'higher' if sign > 0 else 'lower'} is better)"
        if rel * sign < -gate:
            regressions.append(arrow + f" exceeds {gate:.0%}")
        elif rel * sign > gate:
            improvements.append(arrow)

    for note in notes:
        print(f"bench_compare: note: {note}")
    for line in improvements:
        print(f"bench_compare: improved: {line}")
    for line in regressions:
        print(f"bench_compare: REGRESSION: {line}", file=sys.stderr)
    gated = sum(1 for k in set(base) & set(cand)
                if direction(k) != 0 and base[k] != 0.0
                and threshold_for(k, rules, args.threshold) is not None)
    if regressions:
        print(f"bench_compare: FAILED ({len(regressions)} regressions "
              f"across {gated} gated metrics)", file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({gated} gated metrics, "
          f"{len(improvements)} improved)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
