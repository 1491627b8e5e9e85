#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark binary from source, runs one
workload, checks its metric names against BENCHMARK.json and prints the
result as the last line of standard output.

    python3 perfbench/run.py --workload mpc_online --seed 1 --seconds 10 --trace 0

Run it from the repository root. `--workload all` runs every workload in
turn (for people; each prints its own result line).

Untraced runs (`--trace 0`) report the end-to-end metrics, traced runs
(`--trace 1`) the per-layer ones. A per-layer metric of a layer the
workload never calls (the solver on fleet_serve, the table store on
mpc_online, ...) is reported as 0 and listed on the `# not on path` line.
The last line is one JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`; every line before it starts with `#`.

The build goes to $CARGO_TARGET_DIR (default `.bench_build`) under the
repository root; stores and span traces go to `.perfbench_work/`.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no protemp sources under {ROOT}", 2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, deadline):
    work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--work-dir", work]
    trace_file = os.path.join(WORK_ROOT, "traces",
                              f"trace-{workload}-seed{seed}.json")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    finally:
        written = os.path.join(work, f"trace-{workload}.json")
        if os.path.isfile(written):
            os.makedirs(os.path.dirname(trace_file), exist_ok=True)
            shutil.move(written, trace_file)
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with {done.returncode}")
    raw = json.loads(lines[-1])
    if "trace_file" in raw["info"]:
        raw["info"]["trace_file"] = os.path.relpath(trace_file, ROOT)
    return raw


def format_result(bench, workload, raw, trace):
    """Checks names and units against BENCHMARK.json and returns the
    (human lines, result object) pair."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {}
    for name, entry in raw["metrics"].items():
        if name not in units:
            fail(f"{workload} reports undeclared metric {name}")
        if entry["unit"] != units[name]:
            fail(f"{workload} metric {name} in {entry['unit']}, "
                 f"declared {units[name]}")
        value = entry["value"]
        if value is None or not math.isfinite(value):
            fail(f"{workload} metric {name} is not a finite number")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        fail(f"{workload} did not report {', '.join(missing)}")
    if not trace:
        zeros = [name for name, m in metrics.items() if m["value"] == 0]
        if zeros:
            fail(f"{workload} reports zero for {', '.join(zeros)}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    metrics = {name: metrics[name] for name in units}

    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload]
    info = raw["info"]
    lines = [
        f"# workload {workload}: {why}",
        "# seed {} | kernel backend {} | nproc {} | trace {}".format(
            info.get("seed"), info.get("kernel_backend"), info.get("nproc"),
            trace),
    ]
    lines += [f"# info {k} = {v}" for k, v in info.items()
              if k not in ("seed", "kernel_backend", "nproc", "workload")]
    for check in raw["checks"]:
        verdict = "PASS" if check["pass"] else "FAIL"
        lines.append(f"# check {check['name']}: {verdict} ({check['detail']})")
    lines += [f"# error {e}" for e in raw["errors"]]
    for name, entry in raw["details"].items():
        lines.append(f"# detail {name} = {entry['value']:.6g} {entry['unit']}")
    if missing:
        lines.append("# not on path (reported as 0): " + ", ".join(missing))
    for name, entry in metrics.items():
        lines.append(f"# metric {name} = {entry['value']:.6g} {entry['unit']}")

    correct = (raw["failed"] == 0 and raw["attempted"] >= 1
               and all(c["pass"] for c in raw["checks"]) and not raw["errors"])
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return lines, result


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    binary = build()
    workloads = names if args.workload == "all" else [args.workload]
    for workload in workloads:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        raw = run_binary(binary, workload, args.seed, args.seconds,
                         args.trace, deadline)
        lines, result = format_result(bench, workload, raw, args.trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
