#!/usr/bin/env python3
"""Smoke test of usys_bench (the benchmark_smoke ctest).

    python3 benchmark/smoke.py --bench .bench_build/usys_bench --root . \\
        --work-dir .bench_build/smoke

Runs every workload once at minimum size (--smoke: one pass, or 200
requests) at 4 threads and at 1 thread, then once traced. It asserts exit
status 0, that every BENCHMARK.json end_to_end metric is printed by every
untraced run, that each traced run prints the per_layer metrics of the
layers its workload calls (together: every per_layer metric), that the
simulated-result digest is the same at 1 and 4 threads, that each trace
passes tools/check_stats_schema.py --trace, and that child spans cover
at least 95% of every traced pass.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

# Per-layer metric prefixes of the layers each workload calls (serve has
# no parallel probe, so no executor speedup); every traced run also
# reports on the trace itself.
LAYERS = {
    "gemm_relu": ("arch.", "common."),
    "gemm_dense": ("arch.", "common."),
    "dnn_unary": ("dnn.", "common."),
    "serve_zipf": ("serve.", "sched.", "common.executor.busy_frac",
                   "common.executor.steals_per_pass"),
}
SHARED = ("trace",)


def run(bench, work, name, args):
    out = work / f"{name}.json"
    proc = subprocess.run([bench, *args, "--out", str(out)],
                          stdout=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"smoke: {name}: exit {proc.returncode}\n"
                         f"{proc.stdout}")
    return proc.stdout, json.loads(out.read_text())


def check_printed(name, stdout, metrics):
    printed = {line.split()[0] for line in stdout.splitlines()
               if line and not line.startswith("#")}
    missing = [m["name"] for m in metrics if m["name"] not in printed]
    if missing:
        raise SystemExit(f"smoke: {name}: not printed: {missing}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    root = Path(args.root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    per_layer = {w: [m for m in spec["per_layer"]
                     if m["name"].startswith(LAYERS[w] + SHARED)]
                 for w in LAYERS}
    orphans = {m["name"] for m in spec["per_layer"]} - \
        {m["name"] for ms in per_layer.values() for m in ms}
    if orphans:
        raise SystemExit(f"smoke: no workload reports {sorted(orphans)}")

    for w in LAYERS:
        base = ["--workload", w, "--seed", "7", "--smoke"]
        digests = {}
        for threads in (4, 1):
            name = f"{w}-t{threads}"
            stdout, rec = run(args.bench, work, name,
                              [*base, "--threads", str(threads)])
            check_printed(name, stdout, spec["end_to_end"])
            digests[threads] = rec["digest"]
        if digests[1] != digests[4]:
            raise SystemExit(f"smoke: {w}: digest differs at 1 and 4 "
                             f"threads: {digests}")

        trace = work / f"{w}.trace.json"
        stdout, rec = run(args.bench, work, f"{w}-traced",
                          [*base, "--trace", str(trace)])
        check_printed(f"{w}-traced", stdout, per_layer[w])
        coverage = rec["metrics"]["trace.pass_coverage"]["value"]
        if coverage < 0.95:
            raise SystemExit(f"smoke: {w}: spans cover only "
                             f"{coverage:.3f} of a traced pass")
        check = subprocess.run(
            [sys.executable, str(root / "tools" / "check_stats_schema.py"),
             "--trace", str(trace)])
        if check.returncode != 0:
            raise SystemExit(f"smoke: {w}: invalid trace {trace}")
        print(f"smoke: {w} ok (digest {digests[4]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
