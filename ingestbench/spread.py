#!/usr/bin/env python3
"""Run the benchmark ten times per workload, each time with another seed, and
print for every end-to-end metric the distance between the first and third
quartile of its ten values as a share of their median, beside the bound
BENCHMARK.json fixes for it. This is the check the benchmark driver makes.

    python3 ingestbench/spread.py [--first-seed N] [--runs N] [--out FILE] [--log FILE] [workload ...]

Run from the repository root. Every result object is appended to --out
(default ingestbench/out/spread.jsonl) as it arrives; with --log, every
invocation's full output (each repetition's raw record) is appended there, so
a set can be kept as raw data.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default="ingestbench/out/spread.jsonl")
    ap.add_argument("--log")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    values = {w: {m: [] for m in bounds} for w in workloads}
    ok = True
    # round-robin over the workloads, as the driver interleaves them
    for run in range(args.runs):
        for w in workloads:
            seed = args.first_seed + run
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            started = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - started
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            if args.log:
                with open(args.log, "a") as log:
                    log.write(f"## {w} seed {seed}\n{proc.stdout}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            with open(args.out, "a") as out:
                out.write(json.dumps({"workload": w, "seed": seed, "wall_s": round(took, 1), **result}) + "\n")
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: {took:.1f} s correct={result['correct']} failed={result['failed']}", flush=True)

    print(f"\n{'workload':<16} {'metric':<16} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for w in workloads:
        for m, bound in bounds.items():
            v = values[w][m]
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med
            flag = "" if m == "setup_s" or spread <= bound / 3 else (" >bound/3" if spread <= bound else " >BOUND")
            print(f"{w:<16} {m:<16} {med:>12.4f} {spread:>11.3f} {bound:>6.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
