#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds the library from
this checkout's sources) into the build directory: $CARGO_TARGET_DIR when
set, else .bench_build. Later runs only rebuild what changed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. Exit
code 0 means every output check passed; 1 means a check failed or the
result is malformed; 2 means the benchmark could not be built or run.
Artifacts, traces and the autotune history go to .bench_out/.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "willump_perfbench"
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (first time) and build the benchmark binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(build_dir), "--target", BINARY, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = build_dir / BINARY
    return binary if binary.exists() else None


def record_autotune(workload, seed, lines):
    """Append this run's autotune picks to the history and count the distinct
    pick sets seen across all recorded set-ups of the workload."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    history = out / f"autotune-{workload}.jsonl"
    with history.open("a") as f:
        for line in lines:
            picks = json.loads(line[len("autotune "):])
            picks.pop("setup", None)
            f.write(json.dumps({"seed": seed, "picks": picks}, sort_keys=True) + "\n")
    seen = set()
    runs = 0
    with history.open() as f:
        for line in f:
            runs += 1
            seen.add(json.dumps(json.loads(line)["picks"], sort_keys=True))
    return {"setups_recorded": runs, "distinct_pick_sets": len(seen)}


def check_result(result, names):
    """Problems with the shape of the result line, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name, unit in names.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit or not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            problems.append(f"metric {name} malformed: {m}")
    extra = sorted(set(metrics) - set(names))
    if extra:
        problems.append(f"unexpected metrics {extra}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log(f"no {spec_path}")
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in group}

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    started = time.monotonic()
    binary = build(build_dir)
    if binary is None:
        log("benchmark build failed")
        return 2
    log(f"build ready in {time.monotonic() - started:.1f} s")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode} and no result")
        return 2
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    autotune = [l for l in lines[:-1] if l.startswith("autotune ")]
    print("autotune_history " + json.dumps(record_autotune(args.workload, args.seed, autotune)))

    problems = check_result(result, names)
    for p in problems:
        log(f"malformed result: {p}")
    print(json.dumps(result), flush=True)
    if problems or proc.returncode != 0 or not result.get("correct"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
