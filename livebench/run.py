#!/usr/bin/env python3
"""Builds and runs the live end-to-end benchmark of SimFS.

Run from the repository root:

    python3 livebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 livebench/run.py --self-check

The first call configures and builds livebench/ (the SimFS library from
src/ plus the benchmark binary) under $CARGO_TARGET_DIR/livebench, or
.bench_build/livebench when that is unset. Workload sizes come from
livebench/workloads.json; metric names and units from BENCHMARK.json.

--trace 0 runs the workload once and reports the end-to-end metrics.
--trace 1 runs it untraced and then traced (same seed), reports the
per-layer metrics of the traced run, and the tracing overhead: the drop
in files_per_s from the untraced to the traced run.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it carries every measured metric, the workload sizes and
the provenance of the run. The exit code is 0 only for a correct run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sweep_resim", "posix_mixed", "ring_sweep"]
# Serving-path workloads, outside BENCHMARK.json: their CPU-bound figures
# follow the load on a shared host (README.md, "Stability").
SERVING = ["hot_read", "ring_fanin"]
# Cache-pressure variants, outside BENCHMARK.json: their reads hit a known
# SimFS defect (README.md, "Known defects"); the self-check reports them.
PROBES = ["sweep_pressure", "posix_pressure"]
# The binary runs of one measurement share this budget (a measurement
# must finish within 180 s).
BUDGET_S = 170


def fail(msg, code=2):
    print(f"livebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "livebench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "simfs_livebench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(out, "simfs_livebench")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_binary(binary, workload, seed, seconds, trace, params, deadline, trace_out=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMFS_")}
    # Socket data plane: the shm plane would create segments outside the
    # working tree.
    env["SIMFS_SHM"] = "0"
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           # Relative, to keep Unix socket paths under the 107-byte limit.
           "--dir", os.path.relpath(os.path.join(build_dir(), f"run-{workload}-{os.getpid()}"))]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    for k, v in params.items():
        cmd += ["--param", f"{k}={v}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} ran past its time budget", 4)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {proc.returncode})", 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout[-2000:])
        fail(f"{workload} printed a malformed result", 4)
    if proc.returncode not in (0, 1):
        fail(f"{workload} exited {proc.returncode}", 4)
    return result


def measure(workload, seed, seconds, trace):
    """Runs one workload; returns (contract line, detail line)."""
    bench = load_json("BENCHMARK.json")
    if workload not in WORKLOADS + SERVING + PROBES:
        fail(f"unknown workload {workload}")
    params = load_json(os.path.join(HERE, "workloads.json"))[workload]
    binary = build()
    deadline = time.monotonic() + BUDGET_S
    untraced = run_binary(binary, workload, seed, seconds, False, params, deadline)
    runs = [untraced]
    wanted = bench["end_to_end"]
    measured = dict(untraced["metrics"])
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        traced = run_binary(binary, workload, seed, seconds, True, params, deadline,
                            os.path.join(trace_dir, f"{workload}.jsonl"))
        runs.append(traced)
        base = untraced["metrics"]["files_per_s"]["value"]
        measured = dict(traced["metrics"])
        measured["trace.overhead_frac"] = {
            "value": 1.0 - traced["metrics"]["files_per_s"]["value"] / base if base else 0.0,
            "unit": "ratio"}
        wanted = bench["per_layer"]
    metrics = {}
    for spec in wanted:
        got = measured.get(spec["name"])
        if got is None:
            fail(f"{workload} did not measure {spec['name']}")
        if got["unit"] != spec["unit"]:
            fail(f"{workload}: {spec['name']} in {got['unit']}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    line = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "mismatches": sum(r["mismatches"] for r in runs),
        "sizes": untraced["sizes"], "provenance": untraced["provenance"],
        "all_metrics": measured,
    }
    return line, detail


def self_check(seconds):
    """Short pass of every workload, untraced and traced."""
    problems = []
    for workload in WORKLOADS + SERVING:
        for trace in (False, True):
            line, detail = measure(workload, 1, seconds, trace)
            m = detail["all_metrics"]
            tag = f"{workload} trace={int(trace)}"
            if not line["correct"] or line["failed"] != 0:
                problems.append(f"{tag}: correct={line['correct']} failed={line['failed']}")
            for name, v in line["metrics"].items():
                if not trace and workload in WORKLOADS and not v["value"] > 0:
                    problems.append(f"{tag}: end-to-end metric {name} is {v['value']}")
            if m["fail_frac"]["value"] != 0:
                problems.append(f"{tag}: fail_frac {m['fail_frac']['value']}")
            if workload in ("hot_read", "ring_fanin") and m["cache.misses"]["value"] != 0:
                problems.append(f"{tag}: {m['cache.misses']['value']} misses on a resident set")
            if trace and workload == "sweep_resim":
                for name in ("simulator.jobs", "prefetch.jobs"):
                    if not m[name]["value"] > 0:
                        problems.append(f"{tag}: {name} is {m[name]['value']}")
            if trace and workload == "ring_sweep" and not m["cluster.lease_grants"]["value"] > 0:
                problems.append(f"{tag}: no lease grants on the ring")
            if trace and workload == "hot_read":
                if m["cache.hit_ratio"]["value"] != 1:
                    problems.append(f"{tag}: cache.hit_ratio {m['cache.hit_ratio']['value']}")
                if m["simulator.jobs"]["value"] != 0:
                    problems.append(f"{tag}: simulator.jobs {m['simulator.jobs']['value']}")
            print(f"{tag}: " + ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                                         for k, v in line["metrics"].items()))
    for probe in PROBES:
        line, detail = measure(probe, 1, seconds, False)
        m = detail["all_metrics"]
        print(f"known defect probe {probe}: fail_frac={m['fail_frac']['value']:.4g} "
              f"({line['failed']} of {line['attempted']} reads; README.md, Known defects)")
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + SERVING + PROBES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (default 10; 5 per run with --self-check)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        sys.exit(self_check(args.seconds or 5))
    if not args.workload:
        ap.error("--workload is required")
    line, detail = measure(args.workload, args.seed, args.seconds or 10, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
