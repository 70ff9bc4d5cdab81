#!/usr/bin/env python3
"""Steadiness check for the RingNet benchmark.

Runs the command of BENCHMARK.json once per seed on each workload and
prints, for every end-to-end metric, the median and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. It also prints the spread of the raw wall
values behind `setup_s` and `sim_s_per_wall_s`, so the benefit of the
reference-kernel normalisation is shown on the machine at hand. A metric
whose spread is not below a third of its bound is flagged.

Run from the repository root:

    python3 ringbench/steady.py --seeds 1-10 [--workloads metro_fanout,...]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    diag = {}
    for line in lines:
        if line.startswith("diagnostics: "):
            diag = json.loads(line[len("diagnostics: "):])
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return result, diag


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="range a-b or list a,b,c")
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if "-" in args.seeds:
        lo, hi = map(int, args.seeds.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    for w in workloads:
        values = {name: [] for name in bounds}
        raw = {"raw.setup_s": [], "raw.sim_s_per_wall_s": [], "ref.quantum_ms": []}
        t0 = time.time()
        for seed in seeds:
            result, diag = run(bench["command"], w, seed, seconds, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in raw:
                raw[name].append(diag[name])
        print(f"{w}: {len(seeds)} seeds, {time.time() - t0:.0f} s")
        for name, vals in values.items():
            med, sp = spread(vals)
            bad = sp >= bounds[name] / 3 and name != "setup_s"
            flagged += bad
            print(f"  {name:<28} median {med:12.6g}  spread {sp:7.4f}  "
                  f"bound {bounds[name]:.3f}{'  <-- not below bound/3' if bad else ''}")
        for name, vals in raw.items():
            med, sp = spread(vals)
            print(f"  {name:<28} median {med:12.6g}  spread {sp:7.4f}  (raw diagnostic)")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
