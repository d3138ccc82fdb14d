#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and record how steady it is.

Runs every workload once per seed (workloads interleaved, so slow drift of
the host spreads over all of them), then reports for each end-to-end metric
the median, the quartiles of `statistics.quantiles(values, n=4)` and the
spread (q3 - q1) / median, next to the bound in BENCHMARK.json. A spread
above a third of its bound is flagged.

    python3 perfbench/steadiness.py --runs 10 --seed-base 1000 \
        --out perfbench/STEADINESS.json

Run it from the repository root. It builds the benchmark first.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result, time.time() - started


def host_header(runs, seconds):
    def output(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": output(["rustc", "--version"]) or "unknown",
        "git_rev": output(["git", "rev-parse", "HEAD"]) or "unknown",
        "runs_per_workload": runs,
        "run_seconds": seconds,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    metrics = bench["per_layer" if opts.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    build = subprocess.run(bench["command"] + ["--help"], capture_output=True, text=True)
    if "--workload" not in build.stderr + build.stdout:
        sys.stderr.write(build.stderr[-4000:])
        raise SystemExit("the benchmark did not build")

    values = {w: {m["name"]: [] for m in metrics} for w in names}
    walls = {w: [] for w in names}
    for i in range(opts.runs):
        seed = opts.seed_base + i
        for workload in names:
            result, wall = run_once(bench["command"], workload, seed, seconds, opts.trace)
            walls[workload].append(wall)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"run {i + 1}/{opts.runs} {workload} seed {seed}: {wall:.1f} s", flush=True)

    record = {"host": host_header(opts.runs, seconds),
              "seeds": [opts.seed_base + i for i in range(opts.runs)],
              "workloads": {}}
    unsteady = 0
    for workload in names:
        rows = {}
        print(f"\n{workload} (wall p50 {statistics.median(walls[workload]):.1f} s)")
        for name, series in values[workload].items():
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of its bound"
                unsteady += 1
            print(f"  {name:28s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:6.3f}  bound {bound}{flag}")
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": round(spread, 4)}
        record["workloads"][workload] = rows
    if opts.out:
        with open(opts.out, "w") as out:
            json.dump(record, out, indent=2)
            out.write("\n")
    print(f"\n{unsteady} metric/workload pairs above a third of their bound")


if __name__ == "__main__":
    main()
