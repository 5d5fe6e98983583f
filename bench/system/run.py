#!/usr/bin/env python3
"""Runs one workload of the system benchmark and prints its metrics.

    python3 bench/system/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The command

1. builds bench/system (and the obiswap libraries from src/) into
   $CARGO_TARGET_DIR/system_bench, default .bench_build/system_bench;
2. runs the benchmark's self-test, which also checks that the metric names
   and units system_bench emits are exactly those BENCHMARK.json lists;
3. runs the workload once: with --trace 0 it reports every end-to-end
   metric, with --trace 1 every per-layer metric, and writes the span trace
   and a per-layer summary to <build>/trace/;
4. compares the run's deterministic metrics (virtual time and program
   counts) with any earlier run of the same build, workload, seed and
   length, and reports any difference as a failure. The first such run
   only records them: within one invocation, only the five set-ups are
   compared with each other, so the measured window (on fleet_outage
   including the outage and recovery) is checked from the second
   invocation on.

Every metric is printed by name with its unit. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits 0 only when every op, output check and comparison passed.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "system"
# Once built, the command must finish within this many seconds.
DEADLINE_S = 175.0


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "system_bench"


def run_logged(command, log, timeout):
    with open(log, "ab") as out:
        try:
            return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return None


def build(directory):
    directory.mkdir(parents=True, exist_ok=True)
    log = directory / "build.log"
    if not (directory / "CMakeCache.txt").exists():
        command = ["cmake", "-S", str(SOURCE), "-B", str(directory),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if run_logged(command, log, 900) != 0:
            shutil.rmtree(directory / "CMakeFiles", ignore_errors=True)
            (directory / "CMakeCache.txt").unlink(missing_ok=True)
            fail(f"configure failed, see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", str(directory), "-j", jobs], log,
                  900) != 0:
        fail(f"build failed, see {log}")


def last_json_line(text, what):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as error:
        fail(f"{what} printed no JSON result: {error}")


def check_catalog(emitted, listed, mode):
    """The metrics `emitted` must be exactly those BENCHMARK.json lists."""
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: entry.get("unit") for name, entry in emitted.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"{mode} metrics disagree with BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {units}")


def self_test(directory, spec, started):
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        result = subprocess.run([str(directory / "system_bench_selftest")],
                                capture_output=True, text=True,
                                timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        fail("self-test timed out")
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        fail("self-test failed")
    sample = last_json_line(result.stdout, "self-test")
    check_catalog(sample["end_to_end"], spec["end_to_end"], "end-to-end")
    check_catalog(sample["per_layer"], spec["per_layer"], "per-layer")


def check_determinism(directory, args, fingerprint):
    """Same binary, workload, seed and length: the deterministic metrics
    must match every earlier run byte for byte. Returns an error message or
    None."""
    binary = hashlib.sha256(
        (directory / "system_bench").read_bytes()).hexdigest()[:16]
    store = directory / "determinism" / binary
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{args.workload}-seed{args.seed}-s{args.seconds}.txt"
    if not path.exists():
        path.write_text(fingerprint)
        return None
    before = path.read_text()
    if before == fingerprint:
        return None
    old, new = before.splitlines(), fingerprint.splitlines()
    differing = [f"{a!r} -> {b!r}" for a, b in zip(old, new) if a != b]
    if len(old) != len(new):
        differing.append(f"{len(old)} lines -> {len(new)} lines")
    return ("deterministic metrics differ from an earlier run with the same "
            f"seed: {'; '.join(differing[:5])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    directory = build_dir()
    build(directory)
    started = time.monotonic()
    self_test(directory, spec, started)

    trace_dir = directory / "trace"
    trace_dir.mkdir(exist_ok=True)
    command = [str(directory / "system_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(trace_dir)]
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
    sys.stderr.write(result.stderr)
    outcome = last_json_line(result.stdout, args.workload)
    for line in result.stdout.splitlines()[:-1]:
        print(line)

    if outcome["attempted"] < 1:
        fail(f"{args.workload} attempted no op: {outcome['errors']}")
    mode = "per_layer" if args.trace else "end_to_end"
    check_catalog(outcome["metrics"], spec[mode], mode)
    problems = []
    for name, entry in outcome["metrics"].items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value}")
    mismatch = check_determinism(directory, args, outcome["fingerprint"])
    if mismatch:
        problems.append(mismatch)
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)
    correct = (outcome["correct"] and result.returncode == 0
               and not problems)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
