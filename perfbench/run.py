#!/usr/bin/env python3
"""Campaign benchmark of the cmdare simulator and predictors.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the cmdare library from
src/ plus the benchmark driver) into .bench_build/ with CMake, runs one
workload (or every one, in turn, with --workload all), and prints for each
one JSON object as the last line of its output:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer metrics; a
per-layer metric of a layer the workload never calls reads 0. The lines
before it name every metric with its unit and sample count.

Every run also writes a record to .bench_runs/: the host stamp (compiler,
build type and flags, nproc, load average at start, seed, source digest and
git commit when there is one), every raw sample, and for a traced run its
spans. Exit status: 0 when every output check passed, 1 when one failed,
2 when the benchmark could not build or run.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
RECORDS = ROOT / ".bench_runs"
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode:
            fail("build failed: " + " ".join(step))
    return BUILD / "perfbench"


def cmake_cache():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def host_stamp(seed, load_at_start):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
        "-std=c++20 -Wall -Wextra") if f)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "compiler": compiler,
        "compiler_version": version[0] if version else "",
        "build_type": build_type,
        "cxx_flags": flags,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "machine": platform.machine(),
        "kernel": platform.release(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def run_workload(spec, binary, workload, seed, seconds, trace,
                 load_at_start):
    """Runs one workload; prints its summary and result line. Returns
    whether every output check passed."""
    stem = (f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-{workload}"
            f"-seed{seed}-trace{trace}")
    raw_path = RECORDS / f"{stem}.raw.json"
    spans_path = RECORDS / f"{stem}.spans.jsonl"
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--specs", str(HERE / "specs"), "--pins", str(HERE / "pins.tsv"),
               "--record", str(raw_path)]
    if trace:
        command += ["--spans", str(spans_path)]
    # Replica warnings (abandoned slots and checkpoints) are expected in
    # these fault-heavy workloads; writing thousands of them would time
    # the log sink instead of the simulator.
    env = dict(os.environ, CMDARE_LOG_LEVEL="error")
    try:
        status = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {BINARY_TIMEOUT_S} s")
    if status not in (0, 1) or not raw_path.exists():
        fail(f"benchmark driver exited with status {status}")
    record = json.loads(raw_path.read_text())
    raw_path.unlink()

    section = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    emitted = record["metrics"]
    unknown = sorted(set(emitted) - set(units))
    missing = sorted(set(units) - set(emitted))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    if missing and not trace:
        fail(f"end-to-end metrics not measured: {missing}")

    metrics = {name: {"value": emitted.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    samples = record["samples"]
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace}")
    for name, m in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{count}")
    for name, value in record["info"].items():
        print(f"  {name} = {value:.6g}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")

    correct = record["failed"] == 0 and status == 0
    record["host"] = host_stamp(seed, load_at_start)
    record["spans_file"] = spans_path.name if spans_path.exists() else None
    (RECORDS / f"{stem}.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(record["attempted"])),
                      "failed": int(record["failed"]),
                      "metrics": metrics}), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    load_at_start = list(os.getloadavg())

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    RECORDS.mkdir(exist_ok=True)
    workloads = names if args.workload == "all" else [args.workload]
    correct = [run_workload(spec, binary, w, args.seed, args.seconds,
                            args.trace, load_at_start) for w in workloads]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
