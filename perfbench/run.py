#!/usr/bin/env python3
"""Build and run the pmcf benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_cold --seed 1 --seconds 20 --trace 0

Workloads: dense_cold, robust_tier, resolve_churn, batch_fanout (see
pmcf_bench.cpp for what each one measures and why; BENCHMARK.json lists all
but dense_cold). Further flags are passed
to pmcf_bench: --scale tiny (small instances, for the benchmark's own tests)
and --threads N (thread budget, default 4; refused above the available cpus).

pmcf_bench and the library are built from source with CMake (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; build output goes to
stderr. The last line of stdout is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, holding
every metric BENCHMARK.json lists for the mode (end_to_end with --trace 0,
per_layer with --trace 1) with the unit listed there; a run that misses one
exits non-zero. The line before it reports further figures with their sample
counts and the host record.
With --trace 1 the span dump is written to <build dir>/traces/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configure (once) and build pmcf_bench; returns its path or None."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target", "pmcf_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(cmake_dir, "pmcf_bench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main(args):
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 3
    if "--selftest-check" in args:
        return subprocess.run([binary, "--selftest-check"]).returncode

    work_dir = os.path.join(out_dir, "run-%d" % os.getpid())
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-seed%s.jsonl" % (
        arg_value(args, "--workload", "none"), arg_value(args, "--seed", "1")))
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    try:
        p = subprocess.run(
            [binary] + args + ["--work-dir", work_dir, "--trace-out", trace_out],
            env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = p.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if not isinstance(result, dict) or "correct" not in result:
        if lines:
            print(lines[-1])
        print("run.py: pmcf_bench printed no result", file=sys.stderr)
        return p.returncode or 4

    # pmcf_bench reports values by name; the units, and the set of metrics a
    # run must report, come from BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if arg_value(args, "--trace", "0") == "1" else "end_to_end"]
    values = result["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print("run.py: pmcf_bench did not measure " + ", ".join(missing), file=sys.stderr)
        return 4
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in listed}
    print(json.dumps(result), flush=True)
    return p.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
