#!/usr/bin/env python3
"""Measure this checkout with perfbench and append the result to
BENCH_ledger.json.

    python3 bench/ledger.py

Runs perfbench/run.py on every workload BENCHMARK.json declares, once
untraced (--trace 0, the end-to-end metrics) and once traced
(--trace 1, the per-layer metrics), with --seed 1 and --seconds set to
the benchmark's run_seconds. When every run exits 0 with
"correct": true, one entry is appended to BENCH_ledger.json at the
repository root: git describe and the source hash, the host block, the
seed and duration, and each run's metrics, facts, attempted and failed
counts. Otherwise the script exits 1 and leaves the ledger as it was.

Each end-to-end metric is then printed against the last earlier entry
from a host with the same signature (nproc, compiler, build type and
flags), and a move past the bound BENCHMARK.json sets is marked. The
marks are a report, not a gate: one run per side cannot resolve those
bounds on a shared host, where the spread between runs of one commit
can exceed them.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(REPO, "BENCH_ledger.json")
SEED = 1
# Host fields that may differ between the runs of one entry (a run's
# record keeps its workload, trace and threads). The rest of the host
# block must agree across the runs.
PER_RUN = ("workload", "trace", "threads", "harness_rebuilt_this_run")
SIGNATURE = ("nproc", "compiler", "build_type", "cxx_flags")


def fail(message):
    print(f"ledger: {message}; nothing appended", file=sys.stderr)
    sys.exit(1)


def measure(command, workload, trace, seconds):
    """One perfbench run: its host block and its ledger record."""
    argv = command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", str(seconds), "--trace", str(trace)]
    what = f"{workload} --trace {trace}"
    print(f"ledger: {what}", flush=True)
    run = subprocess.run(argv, cwd=REPO, capture_output=True, text=True,
                         check=False)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        correct = result["correct"]
        tagged = dict(line.split(" ", 1) for line in lines
                      if line.startswith(("host ", "facts ")))
        host, facts = json.loads(tagged["host"]), json.loads(tagged["facts"])
    except (IndexError, KeyError, TypeError, ValueError):
        correct = None
    if run.returncode != 0 or correct is not True:
        sys.stderr.write(run.stdout + run.stderr)
        fail(f"{what} exited {run.returncode}, correct {correct}")
    record = {"workload": workload, "trace": trace,
              "threads": host["threads"],
              "attempted": result["attempted"], "failed": result["failed"],
              "facts": facts, "metrics": result["metrics"]}
    return host, record


def compare(entry, ledger, end_to_end):
    """Print each end-to-end metric against the last entry from a host
    with the same signature, marking moves past the metric's bound."""
    same = [e for e in ledger if all(e["host"].get(k) == entry["host"][k]
                                     for k in SIGNATURE)]
    if not same:
        print("ledger: no earlier entry from a host with this signature")
        return
    last = same[-1]
    print(f"ledger: against {last['git_describe']} "
          f"(source {last['source_sha256']})")
    before = {r["workload"]: r["metrics"] for r in last["runs"]
              if r["trace"] == 0}
    for run in entry["runs"]:
        if run["trace"] != 0 or run["workload"] not in before:
            continue
        for metric in end_to_end:
            name = metric["name"]
            old = before[run["workload"]].get(name, {}).get("value")
            new = run["metrics"][name]["value"]
            line = f"  {run['workload']:<13} {name:<12} "
            if not old:
                print(line + f"{new:.4g} {metric['unit']} (none before)")
                continue
            move = (new - old) / old
            worse = move > 0 if metric["better"] == "lower" else move < 0
            line += f"{old:.4g} -> {new:.4g} {metric['unit']} ({move:+.1%})"
            if abs(move) > metric["bound"]:
                line += (f"  past the {metric['bound']:.0%} bound, "
                         + ("worse" if worse else "better"))
            print(line)


def main():
    if len(sys.argv) > 1:
        print("usage: python3 bench/ledger.py (it takes no arguments)",
              file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    ledger = []
    if os.path.exists(LEDGER):
        with open(LEDGER) as f:
            ledger = json.load(f)

    shared, runs = None, []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            host, record = measure(bench["command"], workload, trace,
                                   seconds)
            rest = {k: v for k, v in host.items() if k not in PER_RUN}
            if shared is not None and rest != shared:
                fail("the host block or the sources changed between runs")
            shared = rest
            runs.append(record)

    entry = {"git_describe": shared.pop("git_describe"),
             "source_sha256": shared.pop("source_sha256"),
             "seed": shared.pop("seed"), "seconds": shared.pop("seconds"),
             "host": shared, "runs": runs}
    compare(entry, ledger, bench["end_to_end"])
    try:
        text = json.dumps(ledger + [entry], indent=2, allow_nan=False)
    except ValueError:
        fail("a metric is not a finite number")
    with open(LEDGER + ".tmp", "w") as f:
        f.write(text + "\n")
    os.replace(LEDGER + ".tmp", LEDGER)
    print(f"ledger: appended entry {len(ledger) + 1} to {LEDGER}")


if __name__ == "__main__":
    main()
