#!/usr/bin/env python3
"""Build the benchmark and run one workload; print the result as JSON.

    python3 benchmark/run.py --workload gemm_relu --seed 1 --seconds 10 \\
        --trace 0 [--threads 4] [--save runs/gemm_relu-1.json]

Builds benchmark/ with CMake into $CARGO_TARGET_DIR (default
.bench_build) from the sources in this checkout, then runs usys_bench.
With --trace 0 it first repeats the workload's set-up in four separate
processes, so setup_s is the median of five cold set-ups. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: every BENCHMARK.json end_to_end metric with --trace 0, every
per_layer metric with --trace 1 (which also writes a Chrome trace into
the build directory). --save writes the full record (host fingerprint,
digest, metrics) that compare.py reads.

Exit status: 0 the outputs were correct, 1 a wrong output or a failed
build or run (no JSON line unless the run itself finished), 2 usys_bench
refused an instrumented build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SETUP_REPEATS = 4
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(root / "benchmark"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "usys_bench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return build_dir / "usys_bench"


def run_bench(binary, args, out_path):
    """Run usys_bench; returns (exit code, stdout, parsed --out record)."""
    out_path.unlink(missing_ok=True)
    proc = subprocess.run([str(binary), *args, "--out", str(out_path)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    record = json.loads(out_path.read_text()) if out_path.exists() else None
    return proc.returncode, proc.stdout, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="executor threads (default min(4, nproc))")
    ap.add_argument("--save", help="also write the full run record here")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        log(f"missing {spec_path}")
        return 1
    spec = json.loads(spec_path.read_text())
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(root, build_dir)
    if binary is None:
        return 1

    out_dir = build_dir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.threads:
        common += ["--threads", str(args.threads)]

    setup_s = []
    if args.trace == 0:
        for i in range(SETUP_REPEATS):
            rc, _, rec = run_bench(binary, [*common, "--setup-only"],
                                   out_dir / f"{tag}-setup{i}.json")
            if rc != 0 or rec is None:
                log(f"set-up run {i} failed (exit {rc})")
                return 2 if rc == 2 else 1
            setup_s.append(rec["metrics"]["setup_s"]["value"])

    main_args = [*common, "--seconds", str(args.seconds)]
    if args.trace:
        main_args += ["--trace", str(out_dir / f"{tag}.trace.json")]
    rc, stdout, rec = run_bench(binary, main_args, out_dir / f"{tag}.json")
    sys.stdout.write(stdout)
    if rc == 2 or rec is None:
        log(f"usys_bench exited {rc} without a result")
        return 2 if rc == 2 else 1

    if setup_s:
        setup_s.append(rec["metrics"]["setup_s"]["value"])
        rec["metrics"]["setup_s"]["value"] = statistics.median(setup_s)
        rec["setup_samples_s"] = setup_s
    metrics = {}
    for m in spec["end_to_end"]:
        if m["name"] not in rec["metrics"]:
            log(f"usys_bench did not report {m['name']}")
            return 1
    # A per-layer metric of a layer this workload never calls reads 0.
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = rec["metrics"].get(m["name"], {"value": 0.0})
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(rec, indent=1) + "\n")

    correct = rc == 0 and rec["correct"]
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
