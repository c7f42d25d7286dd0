#!/usr/bin/env python3
"""Build the benchmark harness from the checkout's sources and run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness (perfbench/perfbench.cc) is
built with CMake into .bench_build/perfbench on first use. One run:

  * times cold model-zoo set-up in SETUP_SAMPLES fresh processes (the
    run's own process is one of them) and reports their median;
  * runs the workload's batch job repeatedly for S seconds, checks the
    simulated outputs, and reports the end-to-end metrics (--trace 0)
    or the per-layer metrics (--trace 1, spans written to
    .bench_build/traces/);
  * prints a host block and, as its last line, one JSON object with
    the keys correct, attempted, failed and metrics.

Exits nonzero without a result when the sources cannot be built, and
nonzero with "correct": false when any output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fleet-replay", "fleet-miss", "oracle-fuzz")
# Cold set-ups per run, the run's own included; setup_s is their median.
SETUP_SAMPLES = 3
# Every child process must finish inside the run's overall budget.
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(argv, deadline, **kwargs):
    """Run a child to completion before the deadline, killing it (and
    waiting for it) if it overruns."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(argv))
    try:
        return subprocess.run(argv, timeout=remaining, check=False,
                              **kwargs)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(argv))


def build(deadline):
    """Configure and build the harness; returns whether it was rebuilt."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(REPO, needed)):
            fail(f"no {needed} next to perfbench/: nothing to build")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build directory copied along with a moved checkout still
        # points at the old sources; start it afresh.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
            if home not in f.read():
                shutil.rmtree(BUILD_DIR)
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    if not os.path.exists(cache):
        configure = run_child(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            deadline, stdout=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    made = run_child(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        deadline, stdout=sys.stderr)
    if made.returncode != 0 or not os.path.exists(BINARY):
        fail("build failed")
    return before is None or os.path.getmtime(BINARY) != before


def source_identity():
    """git describe when the checkout is a repository, and a content
    hash of the library sources either way."""
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO,
            capture_output=True, text=True, timeout=10, check=False)
        git = describe.stdout.strip() if describe.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        git = ""
    digest = hashlib.sha256()
    paths = [os.path.join(REPO, "CMakeLists.txt")]
    for top, dirs, files in os.walk(os.path.join(REPO, "src")):
        dirs.sort()
        paths += [os.path.join(top, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return git or "unavailable (not a git checkout)", digest.hexdigest()[:16]


def last_json(stdout, what):
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what} did not end with a JSON line")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    rebuilt = build(deadline)

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        child = run_child([BINARY, "setup", "--workload", args.workload],
                          deadline, capture_output=True, text=True)
        if child.returncode != 0:
            fail("setup process failed")
        setups.append(last_json(child.stdout, "setup")[1])

    argv = [BINARY, "run", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        argv += ["--trace-out", trace_path]
    child = run_child(argv, deadline, capture_output=True, text=True)
    sys.stderr.write(child.stderr)
    if child.returncode not in (0, 1):
        fail(f"harness exited with {child.returncode}")
    lines, result = last_json(child.stdout, "harness")
    for line in lines:
        print(line)

    # Set-up: the median cold set-up over this run's fresh processes.
    setup_s = [s["setup_s"] for s in setups]
    metrics = result["metrics"]
    if args.trace:
        for name, metric in metrics.items():
            if name.startswith("dnn."):
                metric["value"] = statistics.median(
                    [metric["value"]]
                    + [s["layers"].get(name, {"value": 0.0})["value"]
                       for s in setups])
    else:
        setup_s.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_s)
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_s)
              + f" -> median {metrics['setup_s']['value']:.4f} s")

    git, sources = source_identity()
    host = result["host"]
    host.update({
        "git_describe": git,
        "source_sha256": sources,
        "harness_rebuilt_this_run": rebuilt,
        "setup_samples": SETUP_SAMPLES,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    print("host " + json.dumps(host, sort_keys=True))
    print("facts " + json.dumps(result["facts"], sort_keys=True))
    ok = result["correct"] is True and child.returncode == 0
    print(json.dumps({
        "correct": ok,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
