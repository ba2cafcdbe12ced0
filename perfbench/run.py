#!/usr/bin/env python3
"""Run one tseig benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eig_vectors --seed 1 --seconds 10 --trace 0

Builds the `perfbench` binary from source (into `$CARGO_TARGET_DIR`,
default `perfbench/target`), then:

* `--trace 0`: two fresh `setup` processes and one `measure` process,
  which give the end-to-end metrics;
* `--trace 1`: one traced `measure` process, which gives the per-layer
  metrics and writes its spans to `perfbench/out/`.

The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is
the run record (commit, source digest, thread budget, SIMD kernel,
sample counts). Metric names and units come from `BENCHMARK.json`.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Whole-run limit for the measuring processes, below the 180 s a run may take.
BUDGET_S = 170.0
# Fresh processes timing a cold first unit, besides the measuring one.
SETUP_CHILDREN = 2
# Inputs of the build; their digest identifies the measured code.
SOURCES = ["Cargo.toml", "Cargo.lock", ".cargo/config.toml", "crates", "shims", "perfbench"]
SKIP_DIRS = {"target", "out", "__pycache__"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    for entry in SOURCES:
        top = os.path.join(ROOT, entry)
        paths = [top] if os.path.isfile(top) else []
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    r = subprocess.run(["cargo", "build", "--release", "--quiet", "--manifest-path", manifest], cwd=ROOT, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    exe = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"no binary at {exe}")
    return exe


def child(argv, deadline):
    """Run one benchmark process to completion and parse its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("time budget exhausted")
    try:
        r = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{argv[1]} exceeded the time budget")
    if r.returncode != 0:
        fail(f"{argv[1]} exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"{argv[1]} printed nothing")
    return json.loads(lines[-1])


def end_to_end(exe, common, deadline):
    setups = [child([exe, "setup", *common], deadline) for _ in range(SETUP_CHILDREN)]
    m = child([exe, "measure", *common, "--trace", "0"], deadline)
    attempted = m["attempted"] + sum(s["attempted"] for s in setups)
    failed = m["failed"] + sum(s["failed"] for s in setups)
    cold = [m["cold_s"]] + [s["cold_s"] for s in setups]
    values = {
        "solve_s.p50": m["solve_s_p50"],
        "throughput_rps": m["throughput_rps"],
        "setup_s": statistics.median(cold),
        "peak_rss_mib": statistics.median([m["cold_rss_mib"]] + [s["cold_rss_mib"] for s in setups]),
        "ok_rate": (attempted - failed) / attempted,
        "accuracy.max": m["accuracy_max"],
    }
    record = {k: m[k] for k in ("workload", "seed", "n", "nproc", "threads", "simd", "tseig_simd")}
    record.update(
        solve_samples=m["samples"],
        setup_samples=len(cold),
        run_peak_rss_mib=m["peak_rss_mib"],
        residual_max=m["residual_max"],
        orth_max=m["orth_max"],
        eigval_err_max=m["eigval_err_max"],
    )
    return values, {}, record, attempted, failed, []


def per_layer(exe, common, workload, seed, deadline):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_out = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
    t = child([exe, "measure", *common, "--trace", "1", "--trace-out", trace_out], deadline)
    values = {k: v["value"] for k, v in t["metrics"].items()}
    units = {k: v["unit"] for k, v in t["metrics"].items()}
    record = {k: t[k] for k in ("workload", "seed", "n", "nproc", "threads", "simd", "tseig_simd", "spans")}
    record["trace_file"] = os.path.relpath(trace_out, ROOT)
    for m in t["mismatches"]:
        print(f"perfbench: trace cross-check: {m}", file=sys.stderr)
    return values, units, record, t["attempted"], t["failed"], t["mismatches"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload}")

    exe = build()
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.trace:
        values, units, record, attempted, failed, mismatches = per_layer(exe, common, a.workload, a.seed, deadline)
        declared = spec["per_layer"]
    else:
        values, units, record, attempted, failed, mismatches = end_to_end(exe, common, deadline)
        declared = spec["end_to_end"]

    names = [d["name"] for d in declared]
    if set(values) != set(names):
        fail(f"metrics {sorted(set(values) ^ set(names))} are not both declared and measured")
    metrics = {}
    for d in declared:
        if units.get(d["name"], d["unit"]) != d["unit"]:
            fail(f"{d['name']}: unit {units[d['name']]} differs from the declared {d['unit']}")
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}

    record.update(commit=commit(), source_digest=source_digest(), seconds=a.seconds, trace=a.trace)
    print(json.dumps(record))
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
